package universal

// White-box tests of the exclusion (repair) plans that PE-loss recovery
// replays on. The cross-backend crash-recovery matrix, which drives them
// through the serving loop's failover, lives in
// internal/chaos/conformance_test.go.

import (
	"testing"

	"slicing/internal/distmat"
	rt "slicing/internal/runtime"
	"slicing/internal/shmem"
	"slicing/internal/tile"
)

// excludeProblem builds a 4-PE problem with deliberately misaligned C
// tiles so every rank owns stationary work an exclusion must re-deal.
func excludeProblem(w rt.World, m, n, k int) (prob Problem, a, b, c *distmat.Matrix) {
	a = distmat.New(w, m, k, distmat.RowBlock{}, 1)
	b = distmat.New(w, k, n, distmat.ColBlock{}, 1)
	c = distmat.New(w, m, n, distmat.Custom{TileRows: 13, TileCols: 11, ProcRows: 2, ProcCols: 2}, 1)
	return NewProblem(c, a, b), a, b, c
}

// TestExcludePlansConserveWork pins the repair-plan invariant: excluding
// ranks moves their ops to survivors without creating or losing any —
// same total step count and flops, empty plans on the excluded ranks.
func TestExcludePlansConserveWork(t *testing.T) {
	const p, m, n, k = 4, 90, 70, 50
	w := shmem.NewWorld(p)
	prob, _, _, _ := excludeProblem(w, m, n, k)
	cfg := DefaultConfig()
	healthy := CompilePlans(prob, cfg)
	for _, exclude := range [][]int{{2}, {0, 3}, {0, 1, 2}} {
		cfgx := cfg
		cfgx.Exclude = exclude
		cpx := CompilePlans(prob, cfgx)
		if cpx.Steps() != healthy.Steps() {
			t.Errorf("exclude %v: %d steps, healthy has %d", exclude, cpx.Steps(), healthy.Steps())
		}
		var hf, xf float64
		for r := 0; r < p; r++ {
			hf += healthy.Plans[r].TotalFlops()
			xf += cpx.Plans[r].TotalFlops()
		}
		if hf != xf {
			t.Errorf("exclude %v: flops %g, healthy %g", exclude, xf, hf)
		}
		for _, r := range exclude {
			if len(cpx.Plans[r].Steps) != 0 {
				t.Errorf("excluded rank %d still has %d steps", r, len(cpx.Plans[r].Steps))
			}
		}
		// compileRank alone (the cacheless per-rank path) must agree with
		// the collective compilation step-for-step in count.
		for r := 0; r < p; r++ {
			pl := compileRank(r, prob, cpx.Key, exclude, nil)
			if len(pl.Steps) != len(cpx.Plans[r].Steps) {
				t.Errorf("exclude %v rank %d: compileRank %d steps, CompilePlans %d",
					exclude, r, len(pl.Steps), len(cpx.Plans[r].Steps))
			}
		}
	}
}

// TestExcludeKeysDistinct pins that exclusion sets key the plan cache:
// distinct sets get distinct keys (repair plans are ordinary cache
// entries), while nil, empty, unsorted, and duplicated spellings of the
// same set collapse to one key.
func TestExcludeKeysDistinct(t *testing.T) {
	const p, m, n, k = 4, 90, 70, 50
	w := shmem.NewWorld(p)
	prob, _, _, _ := excludeProblem(w, m, n, k)
	cfg := DefaultConfig()
	key := func(exclude []int) PlanKey {
		c := cfg
		c.Exclude = exclude
		return PlanKeyOf(prob, c)
	}
	base := key(nil)
	if key([]int{}) != base {
		t.Error("nil and empty Exclude produced different keys")
	}
	if base.Excluded != 0 {
		t.Errorf("healthy key has Excluded hash %#x, want 0", base.Excluded)
	}
	seen := map[uint64][]int{0: nil}
	for _, exclude := range [][]int{{0}, {1}, {2}, {3}, {0, 1}, {1, 2}, {0, 3}, {1, 2, 3}} {
		kx := key(exclude)
		if prev, dup := seen[kx.Excluded]; dup {
			t.Errorf("exclude %v collides with %v on hash %#x", exclude, prev, kx.Excluded)
		}
		seen[kx.Excluded] = exclude
	}
	if key([]int{2, 1}) != key([]int{1, 2}) || key([]int{1, 1, 2}) != key([]int{1, 2}) {
		t.Error("unsorted/duplicated Exclude spellings did not canonicalize")
	}
}

// TestExcludeExecutionMatchesReference runs a multiply with ranks
// excluded on a healthy world — the serving loop's failover situation,
// where crashed ranks still barrier but are assigned no steps — and
// checks the survivors' adopted work lands the exact product.
func TestExcludeExecutionMatchesReference(t *testing.T) {
	const p, m, n, k = 4, 90, 70, 50
	w := shmem.NewWorld(p)
	_, a, b, c := excludeProblem(w, m, n, k)
	w.Run(func(pe rt.PE) {
		a.FillRandom(pe, 101)
		b.FillRandom(pe, 202)
	})
	ref := referenceProduct(m, n, k, 101, 202, a, b, w)
	for _, exclude := range [][]int{{1}, {0, 2}, {1, 2, 3}} {
		cfg := DefaultConfig()
		cfg.Exclude = exclude
		var got *tile.Matrix
		w.Run(func(pe rt.PE) {
			if _, err := Multiply(pe, c, a, b, cfg); err != nil {
				t.Errorf("exclude %v rank %d: %v", exclude, pe.Rank(), err)
			}
			pe.Barrier()
			if pe.Rank() == 0 {
				got = c.Gather(pe, 0)
			}
		})
		if !got.AllClose(ref, 1e-3) {
			t.Errorf("exclude %v: maxdiff %g vs reference", exclude, got.MaxAbsDiff(ref))
		}
	}
}
