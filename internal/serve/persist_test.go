package serve

import (
	"context"
	"testing"

	"slicing/internal/shmem"
	"slicing/internal/universal"
)

// A server's compiled plans must survive a restart through PlanCacheFile:
// the first server compiles and saves on Close, the second warm-starts and
// serves the same shapes with zero builds.
func TestServePlanCacheFileWarmStart(t *testing.T) {
	const p = 4
	path := t.TempDir() + "/plans.json"

	w1 := shmem.NewWorld(p)
	f1 := makeTenant(w1, "alpha", 48, 40, 56, 2, 1)
	cache1 := universal.NewPlanCache(16)
	s1 := NewServer(w1, Config{
		Exec:          universal.Config{Plans: cache1},
		PlanCacheFile: path,
	})
	if loaded, err := s1.PlanCachePersistence(); loaded != 0 || err != nil {
		t.Fatalf("cold start reported (%d, %v), want (0, nil)", loaded, err)
	}
	for _, c := range f1.cs {
		if _, err := s1.Multiply(context.Background(), "alpha", c, f1.a, f1.b); err != nil {
			t.Fatalf("Multiply: %v", err)
		}
	}
	builds := cache1.Stats().Builds
	if builds == 0 {
		t.Fatal("first server compiled no plans")
	}
	s1.Close()
	if _, err := s1.PlanCachePersistence(); err != nil {
		t.Fatalf("save on Close failed: %v", err)
	}
	checkResults(t, w1, []*tenantFixture{f1})

	// Second process: same shapes over a fresh world and cache.
	w2 := shmem.NewWorld(p)
	f2 := makeTenant(w2, "alpha", 48, 40, 56, 2, 7)
	cache2 := universal.NewPlanCache(16)
	s2 := NewServer(w2, Config{
		Exec:          universal.Config{Plans: cache2},
		PlanCacheFile: path,
	})
	loaded, err := s2.PlanCachePersistence()
	if err != nil {
		t.Fatalf("warm start: %v", err)
	}
	if int64(loaded) != builds {
		t.Fatalf("warm start loaded %d plans, first server built %d", loaded, builds)
	}
	for _, c := range f2.cs {
		if _, err := s2.Multiply(context.Background(), "alpha", c, f2.a, f2.b); err != nil {
			t.Fatalf("warm Multiply: %v", err)
		}
	}
	if got := cache2.Stats().Builds; got != 0 {
		t.Fatalf("warm server compiled %d plans, want 0", got)
	}
	s2.Close()
	checkResults(t, w2, []*tenantFixture{f2})
}
