package main

import (
	"fmt"
	"time"

	"slicing"
)

// ---- model-replay: one model point per op, no arithmetic ----------------

// MLP-1 at batch 8192.
const modelM, modelN, modelK = 8192, 49152, 12288

// modelLayout is one of the fixed layouts replayed at every cluster size.
type modelLayout struct {
	name                string
	partA, partB, partC slicing.Partition
	// replAB / replC of 0 mean "one replica per node".
	replAB, replC int
	stat          slicing.Stationary
}

// Five layouts × three cluster sizes make a cycle of 15 points. The count
// is odd on purpose: the points differ in cost by two orders of magnitude
// and are equally frequent, so with an even count the median latency sits
// exactly on the boundary between two points and flips between their
// costs from slice to slice.
var modelLayouts = []modelLayout{
	{"column", slicing.ColBlock{}, slicing.ColBlock{}, slicing.ColBlock{}, 1, 1, slicing.StationaryAuto},
	{"block2d-sc", slicing.Block2D{}, slicing.Block2D{}, slicing.Block2D{}, 1, 1, slicing.StationaryC},
	{"outer-crepl", slicing.ColBlock{}, slicing.RowBlock{}, slicing.Block2D{}, 1, 0, slicing.StationaryAuto},
	{"rowcol-ab2", slicing.RowBlock{}, slicing.ColBlock{}, slicing.Block2D{}, 2, 1, slicing.StationaryAuto},
	{"row", slicing.RowBlock{}, slicing.RowBlock{}, slicing.RowBlock{}, 1, 1, slicing.StationaryAuto},
}

var modelNodes = []int{2, 8, 16}

type modelPoint struct {
	nodes  int
	layout modelLayout
}

// modelStages is where one model point's time went (traced slices only).
type modelStages struct{ fabric, compile, simulate time.Duration }

type modelWorkload struct {
	x      *slicing.ModelExecutor
	points []modelPoint        // the cycle, in seeded order
	ref    []slicing.SimResult // the first cycle's results, the oracle's pins
	next   int
	traced bool
	stages []modelStages
}

func (wl *modelWorkload) clients() int    { return 1 }
func (wl *modelWorkload) firstOps() []int { return []int{0} }

func (wl *modelWorkload) classes() []opClass {
	return []opClass{{"mlp1-b8192", 2 * float64(modelM) * float64(modelN) * float64(modelK)}}
}

// setup replays the first cycle, in the fixed order the points are listed
// in, and pins its results: set-up time must not depend on which point
// the seed puts first. Only then is the cycle put in seeded order.
func (wl *modelWorkload) setup(env *sliceEnv) error {
	wl.traced = env.tr != nil
	wl.x = slicing.NewModelExecutor()
	for _, nodes := range modelNodes {
		for _, l := range modelLayouts {
			pt := modelPoint{nodes, l}
			wl.points = append(wl.points, pt)
			wl.ref = append(wl.ref, wl.replay(pt, nil))
		}
	}
	env.rng.Shuffle(len(wl.points), func(i, j int) {
		wl.points[i], wl.points[j] = wl.points[j], wl.points[i]
		wl.ref[i], wl.ref[j] = wl.ref[j], wl.ref[i]
	})
	return nil
}

// replay evaluates one model point end to end: build the fabric, lay the
// problem out on a metadata-only world, compile, simulate.
func (wl *modelWorkload) replay(pt modelPoint, st *modelStages) slicing.SimResult {
	t0 := time.Now()
	sys := slicing.H100FatTreeSystem(pt.nodes, 8, 2)
	t1 := time.Now()
	w := slicing.NewModelWorld(8 * pt.nodes)
	replAB, replC := pt.layout.replAB, pt.layout.replC
	if replAB == 0 {
		replAB = pt.nodes
	}
	if replC == 0 {
		replC = pt.nodes
	}
	a := slicing.NewMatrix(w, modelM, modelK, pt.layout.partA, replAB)
	b := slicing.NewMatrix(w, modelK, modelN, pt.layout.partB, replAB)
	c := slicing.NewMatrix(w, modelM, modelN, pt.layout.partC, replC)
	prob := slicing.NewProblem(c, a, b)
	cfg := slicing.DefaultConfig()
	cfg.Stationary = pt.layout.stat
	cp := slicing.CompilePlans(prob, cfg)
	t2 := time.Now()
	res := wl.x.Simulate(prob, cp, cfg, sys)
	if st != nil {
		st.fabric, st.compile, st.simulate = t1.Sub(t0), t2.Sub(t1), time.Since(t2)
	}
	return res
}

// samePoint is the oracle: every replay of a point must equal the first
// cycle's, bit for bit.
func samePoint(got, ref slicing.SimResult) bool {
	return got.Makespan == ref.Makespan && got.Ops == ref.Ops &&
		got.RemoteGetBytes == ref.RemoteGetBytes && got.RemoteAccumBytes == ref.RemoteAccumBytes
}

func (wl *modelWorkload) op(int) (int, error) {
	i := wl.next % len(wl.points)
	wl.next++
	var st *modelStages
	if wl.traced {
		wl.stages = append(wl.stages, modelStages{})
		st = &wl.stages[len(wl.stages)-1]
	}
	if res := wl.replay(wl.points[i], st); !samePoint(res, wl.ref[i]) {
		return 0, fmt.Errorf("model point %d (%d nodes, %s) diverged from the first cycle", i, wl.points[i].nodes, wl.points[i].layout.name)
	}
	return 0, nil
}

// verify replays the cycle once more against the pins; corrupt damages
// one pin first.
func (wl *modelWorkload) verify(corrupt bool) (int, error) {
	if corrupt {
		wl.ref[0].Makespan *= 1.0000001
	}
	wrong := 0
	for i, pt := range wl.points {
		if !samePoint(wl.replay(pt, nil), wl.ref[i]) {
			wrong++
		}
	}
	return wrong, nil
}

func (wl *modelWorkload) counters() progCounters { return progCounters{} }

func (wl *modelWorkload) close() {}
