package universal

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"slicing/internal/distmat"
	"slicing/internal/modelworld"
	rt "slicing/internal/runtime"
	"slicing/internal/shmem"
)

func persistProblem(p, m, n, k, cC int) Problem {
	w := modelworld.NewWorld(p)
	a := distmat.New(w, m, k, distmat.RowBlock{}, 1)
	b := distmat.New(w, k, n, distmat.ColBlock{}, 1)
	c := distmat.New(w, m, n, distmat.Block2D{}, cC)
	return NewProblem(c, a, b)
}

// SaveFile → LoadFile must reproduce the cache: same plans, same recency
// order (the file stores LRU→MRU so replaying Puts restores it).
func TestPlanCacheSaveLoadRoundTrip(t *testing.T) {
	src := NewPlanCache(8)
	cfg := DefaultConfig()
	probs := []Problem{
		persistProblem(4, 64, 64, 64, 1),
		persistProblem(4, 96, 64, 128, 1),
		persistProblem(8, 128, 96, 64, 2),
	}
	var keys []PlanKey
	for _, prob := range probs {
		cp := src.GetOrCompile(prob, cfg)
		keys = append(keys, cp.Key)
	}

	path := filepath.Join(t.TempDir(), "plans.json")
	if err := src.SaveFile(path); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}

	dst := NewPlanCache(8)
	n, err := dst.LoadFile(path)
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	if n != len(probs) {
		t.Fatalf("loaded %d plans, want %d", n, len(probs))
	}
	for i, key := range keys {
		cp, ok := dst.Get(key)
		if !ok {
			t.Fatalf("plan %d missing after round trip", i)
		}
		if cp.Key != key || len(cp.Plans) != key.NumPE {
			t.Fatalf("plan %d corrupted: key %+v", i, cp.Key)
		}
	}
	// The loaded plans must execute through the cache hit path identically:
	// compile fresh and compare step-for-step.
	for _, prob := range probs {
		want := CompilePlans(prob, cfg)
		got, _ := dst.Get(want.Key)
		for r := range want.Plans {
			if len(got.Plans[r].Steps) != len(want.Plans[r].Steps) {
				t.Fatalf("rank %d: loaded %d steps, fresh %d", r, len(got.Plans[r].Steps), len(want.Plans[r].Steps))
			}
			for i := range want.Plans[r].Steps {
				if got.Plans[r].Steps[i] != want.Plans[r].Steps[i] {
					t.Fatalf("rank %d step %d differs after round trip", r, i)
				}
			}
		}
	}
}

// Loading into a smaller cache keeps the most recently used tail.
func TestPlanCacheLoadRespectsCapacity(t *testing.T) {
	src := NewPlanCache(8)
	cfg := DefaultConfig()
	var keys []PlanKey
	for _, mk := range []int{64, 96, 128} {
		cp := src.GetOrCompile(persistProblem(4, mk, 64, 64, 1), cfg)
		keys = append(keys, cp.Key)
	}
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	dst := NewPlanCache(1)
	if n, err := dst.Load(&buf); err != nil || n != 3 {
		t.Fatalf("Load = (%d, %v)", n, err)
	}
	if dst.Len() != 1 {
		t.Fatalf("capacity-1 cache holds %d plans", dst.Len())
	}
	if _, ok := dst.Get(keys[2]); !ok {
		t.Fatal("most recently used plan should survive a capacity-1 load")
	}
}

func TestPlanCacheLoadRejectsBadInput(t *testing.T) {
	c := NewPlanCache(4)
	cases := map[string]string{
		"bad schema":   `{"schema":"plancache/v0","plans":[]}`,
		"not json":     `{"schema":`,
		"null plan":    `{"schema":"plancache/v1","plans":[null]}`,
		"invalid plan": `{"schema":"plancache/v1","plans":[{"key":{"NumPE":-1},"plans":[]}]}`,
	}
	for name, in := range cases {
		if _, err := c.Load(strings.NewReader(in)); err == nil {
			t.Errorf("%s: Load accepted malformed input", name)
		}
	}
	if c.Len() != 0 {
		t.Fatalf("failed loads leaked %d entries", c.Len())
	}
}

// A plancache/v1 file whose chain flags are not what the walk produces —
// one flipped, or all missing because the writer predates chains — is a
// failed load that leaves the cache cold, good entries in the same file
// included.
func TestPlanCacheLoadRejectsChainFlagMismatch(t *testing.T) {
	good, flipped, stripped := chainFlagBlobs(t)
	file := func(plans ...[]byte) string {
		return `{"schema":"plancache/v1","plans":[` + string(bytes.Join(plans, []byte(","))) + `]}`
	}
	c := NewPlanCache(4)
	for name, in := range map[string]string{
		"flipped":  file(good, flipped),
		"stripped": file(stripped),
	} {
		if n, err := c.Load(strings.NewReader(in)); err == nil || n != 0 {
			t.Errorf("%s: Load = (%d, %v), want a rejected file", name, n, err)
		}
	}
	if c.Len() != 0 {
		t.Fatalf("rejected loads left %d entries", c.Len())
	}
	if n, err := c.Load(strings.NewReader(file(good))); err != nil || n != 1 {
		t.Fatalf("the untouched file: Load = (%d, %v)", n, err)
	}
}

// prePassFileProblem is a key on which the order pass picks the C-grouped
// order: the universality case at 96³ (mm-skew's tiles scaled by 3/16).
func prePassFileProblem(w rt.World) (Problem, Config) {
	return skewProblem(w, 96, 18, 15, 14, 20), Config{Stationary: StationaryA}
}

// A plancache/v1 file written before the order pass holds the generated
// order under the key the pass now compiles in the grouped order. It still
// loads, validates against the order it stores, answers that key, and runs
// that order to the right C without a slicing pass. Saved again after a
// fresh compile, the file holds the grouped order.
func TestPlanCacheLoadsPrePassOrder(t *testing.T) {
	w := shmem.NewWorld(4)
	prob, cfg := prePassFileProblem(w)
	old, fresh := prePassPlan(prob, cfg), CompilePlans(prob, cfg)
	if reflect.DeepEqual(old.Plans, fresh.Plans) {
		t.Fatal("the order pass keeps the generated order on this key; the test is vacuous")
	}
	blob, err := json.Marshal(old)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewPlanCache(4)
	file := `{"schema":"plancache/v1","plans":[` + string(blob) + `]}`
	if n, err := cache.Load(strings.NewReader(file)); err != nil || n != 1 {
		t.Fatalf("pre-pass file: Load = (%d, %v)", n, err)
	}
	if got, ok := cache.Get(fresh.Key); !ok || !reflect.DeepEqual(got.Plans, old.Plans) {
		t.Fatalf("the key does not return the stored generated order (found %v)", ok)
	}

	w.Run(func(pe rt.PE) {
		prob.A.FillRandom(pe, 61)
		prob.B.FillRandom(pe, 62)
	})
	want := referenceProduct(96, 96, 96, 61, 62, prob.A, prob.B, w)
	run := cfg
	run.Plans = cache
	before := PlanBuildCount()
	w.Run(func(pe rt.PE) {
		if _, err := Multiply(pe, prob.C, prob.A, prob.B, run); err != nil {
			t.Errorf("rank %d: %v", pe.Rank(), err)
		}
		if pe.Rank() == 0 {
			if got := prob.C.Gather(pe, 0); !got.AllClose(want, 1e-4) {
				t.Errorf("pre-pass plan: maxdiff %g vs GemmNaive", got.MaxAbsDiff(want))
			}
		}
	})
	if n := PlanBuildCount() - before; n != 0 {
		t.Errorf("the loaded plan was recompiled: %d slicing passes", n)
	}

	resaved := NewPlanCache(4)
	resaved.GetOrCompile(prob, cfg)
	var buf bytes.Buffer
	if err := resaved.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back := NewPlanCache(4)
	if n, err := back.Load(&buf); err != nil || n != 1 {
		t.Fatalf("re-saved file: Load = (%d, %v)", n, err)
	}
	if got, _ := back.Get(fresh.Key); got == nil || !reflect.DeepEqual(got.Plans, fresh.Plans) {
		t.Fatal("the re-saved file does not hold the grouped order")
	}
}

// LoadFile on a missing path is a cold start, not an error.
func TestPlanCacheLoadFileMissing(t *testing.T) {
	c := NewPlanCache(4)
	n, err := c.LoadFile(filepath.Join(t.TempDir(), "nope.json"))
	if n != 0 || err != nil {
		t.Fatalf("missing file: (%d, %v), want (0, nil)", n, err)
	}
}
