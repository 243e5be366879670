package main

import (
	"context"
	"testing"

	"slicing"
	"slicing/internal/tile"
)

// transparencyRun multiplies a small problem three times on w through the
// world's shared plan cache and returns C, the world's traffic counters
// and the cache's counters. The layout gives every C entry exactly one
// contribution, so the result is bit-for-bit reproducible: A row-blocked,
// B column-blocked (fetched by remote get), C column-blocked (updated by
// remote accumulate), Stationary A.
func transparencyRun(t *testing.T, w slicing.World) (*tile.Matrix, slicing.Stats, int64, int64) {
	t.Helper()
	const d = 64
	a := slicing.NewMatrix(w, d, d, slicing.RowBlock{}, 1)
	b := slicing.NewMatrix(w, d, d, slicing.ColBlock{}, 1)
	c := slicing.NewMatrix(w, d, d, slicing.ColBlock{}, 1)
	if a.World() != w || c.World() != w {
		t.Fatal("matrices do not report the world they were allocated on")
	}
	w.Run(func(pe slicing.PE) {
		if pe.World() != w {
			t.Error("PE does not report the world that ran it")
		}
		a.FillRandom(pe, 11)
		b.FillRandom(pe, 12)
	})
	cfg := slicing.DefaultConfig()
	cfg.Stationary = slicing.StationaryA
	cfg.Plans = slicing.PlansOf(w)
	cfg.Pool = slicing.NewPool()
	w.ResetStats()
	for i := 0; i < 3; i++ {
		if err := multiplyOnce(w, c, a, b, cfg); err != nil {
			t.Fatal(err)
		}
	}
	st := w.Stats()
	var out *tile.Matrix
	w.Run(func(pe slicing.PE) {
		if pe.Rank() == 0 {
			out = c.Gather(pe, 0)
		}
	})
	pc := cfg.Plans.Stats()
	return out, st, pc.Hits, pc.Misses
}

// The timing decorator changes nothing the program can observe: C, the
// traffic counters and the plan-cache counters are identical with and
// without it, recording or not.
func TestTracedWorldIsTransparent(t *testing.T) {
	wantC, wantStats, wantHits, wantMisses := transparencyRun(t, slicing.NewWorld(4))
	if wantStats.RemoteGetBytes == 0 || wantStats.RemoteAccumBytes == 0 {
		t.Fatalf("the problem moves no remote bytes: %+v", wantStats)
	}
	for _, recording := range []bool{false, true} {
		tr := newTracer()
		if recording {
			tr.start()
		}
		gotC, gotStats, gotHits, gotMisses := transparencyRun(t, newTracedWorld(slicing.NewWorld(4), tr))
		tr.stop()
		if !gotC.Equal(wantC) {
			t.Errorf("recording %v: C differs", recording)
		}
		if gotStats != wantStats {
			t.Errorf("recording %v: stats %+v, want %+v", recording, gotStats, wantStats)
		}
		if gotHits != wantHits || gotMisses != wantMisses {
			t.Errorf("recording %v: plan cache %d hits / %d misses, want %d / %d", recording, gotHits, gotMisses, wantHits, wantMisses)
		}
		var calls [numKinds]int
		for _, s := range tr.recorded() {
			calls[s.Kind]++
			if s.End < s.Start {
				t.Fatalf("span %+v ends before it starts", s)
			}
		}
		if recording && (calls[kindActivation] == 0 || calls[kindPE] != 4*calls[kindActivation] || calls[kindGet] == 0 || calls[kindAccum] == 0 || calls[kindBarrier] == 0) {
			t.Errorf("span counts by kind: %v", calls)
		}
		if !recording && len(tr.recorded()) != 0 {
			t.Errorf("recorded %d spans while off", len(tr.recorded()))
		}
	}
}

// The serving layer accepts operands allocated through the decorator: its
// validation compares their world with the server's.
func TestTracedWorldServes(t *testing.T) {
	w := newTracedWorld(slicing.NewWorld(4), newTracer())
	part := slicing.Custom{TileRows: 16, TileCols: 16, ProcRows: 2, ProcCols: 2}
	a, b, c := slicing.NewMatrix(w, 16, 16, part, 1), slicing.NewMatrix(w, 16, 16, part, 1), slicing.NewMatrix(w, 16, 16, part, 1)
	w.Run(func(pe slicing.PE) {
		a.FillRandom(pe, 1)
		b.FillRandom(pe, 2)
	})
	srv := slicing.NewServer(w, slicing.ServerConfig{})
	defer srv.Close()
	if _, err := srv.Multiply(context.Background(), "t", c, a, b); err != nil {
		t.Fatal(err)
	}
	var wrong int
	w.Run(func(pe slicing.PE) {
		if pe.Rank() == 0 {
			wrong = newOracle(1).check(c.Gather(pe, 0), a.Gather(pe, 0), b.Gather(pe, 0))
		}
	})
	if wrong != 0 {
		t.Errorf("%d wrong entries", wrong)
	}
}
