package universal

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"slicing/internal/distmat"
	"slicing/internal/modelworld"
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

// LoadFile on a missing path is a cold start, not an error.
func TestPlanCacheLoadFileMissing(t *testing.T) {
	c := NewPlanCache(4)
	n, err := c.LoadFile(filepath.Join(t.TempDir(), "nope.json"))
	if n != 0 || err != nil {
		t.Fatalf("missing file: (%d, %v), want (0, nil)", n, err)
	}
}
