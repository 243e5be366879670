package index

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIntervalBasics(t *testing.T) {
	iv := NewInterval(3, 10)
	if got := iv.Len(); got != 7 {
		t.Fatalf("Len = %d, want 7", got)
	}
	if iv.Empty() {
		t.Fatal("interval should not be empty")
	}
	if !iv.Contains(3) || !iv.Contains(9) {
		t.Fatal("endpoints containment wrong")
	}
	if iv.Contains(10) || iv.Contains(2) {
		t.Fatal("half-open semantics violated")
	}
}

func TestIntervalEmpty(t *testing.T) {
	iv := NewInterval(5, 5)
	if !iv.Empty() || iv.Len() != 0 {
		t.Fatalf("empty interval misbehaves: %v", iv)
	}
	if iv.Contains(5) {
		t.Fatal("empty interval should contain nothing")
	}
}

func TestIntervalPanicsOnInverted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewInterval(10,3) should panic")
		}
	}()
	NewInterval(10, 3)
}

func TestIntervalIntersect(t *testing.T) {
	cases := []struct {
		a, b, want Interval
	}{
		{NewInterval(0, 10), NewInterval(5, 15), NewInterval(5, 10)},
		{NewInterval(0, 10), NewInterval(10, 20), Interval{10, 10}},
		{NewInterval(0, 10), NewInterval(20, 30), Interval{20, 20}},
		{NewInterval(3, 7), NewInterval(0, 100), NewInterval(3, 7)},
		{NewInterval(5, 5), NewInterval(0, 10), Interval{5, 5}},
	}
	for _, c := range cases {
		got := c.a.Intersect(c.b)
		if got.Empty() != c.want.Empty() {
			t.Errorf("%v ∩ %v emptiness = %v, want %v", c.a, c.b, got.Empty(), c.want.Empty())
		}
		if !got.Empty() && got != c.want {
			t.Errorf("%v ∩ %v = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestIntervalIntersectCommutative(t *testing.T) {
	f := func(a0, a1, b0, b1 uint8) bool {
		a := NewInterval(int(a0), int(a0)+int(a1))
		b := NewInterval(int(b0), int(b0)+int(b1))
		x, y := a.Intersect(b), b.Intersect(a)
		return x.Empty() == y.Empty() && (x.Empty() || x == y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: i ∈ a∩b  ⇔  i ∈ a && i ∈ b.
func TestIntervalIntersectMembership(t *testing.T) {
	f := func(a0, a1, b0, b1, probe uint8) bool {
		a := NewInterval(int(a0), int(a0)+int(a1))
		b := NewInterval(int(b0), int(b0)+int(b1))
		x := a.Intersect(b)
		i := int(probe)
		return x.Contains(i) == (a.Contains(i) && b.Contains(i))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestIntervalOverlapsConsistentWithIntersect(t *testing.T) {
	f := func(a0, a1, b0, b1 uint8) bool {
		a := NewInterval(int(a0), int(a0)+int(a1))
		b := NewInterval(int(b0), int(b0)+int(b1))
		return a.Overlaps(b) == !a.Intersect(b).Empty()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntervalShiftLocalize(t *testing.T) {
	iv := NewInterval(10, 20)
	if got := iv.Shift(5); got != NewInterval(15, 25) {
		t.Fatalf("Shift = %v", got)
	}
	if got := iv.Localize(10); got != NewInterval(0, 10) {
		t.Fatalf("Localize = %v", got)
	}
}

func TestIntervalContainsInterval(t *testing.T) {
	outer := NewInterval(0, 100)
	if !outer.ContainsInterval(NewInterval(0, 100)) {
		t.Fatal("interval should contain itself")
	}
	if !outer.ContainsInterval(NewInterval(50, 50)) {
		t.Fatal("empty interval is contained anywhere")
	}
	if outer.ContainsInterval(NewInterval(50, 101)) {
		t.Fatal("should not contain overhanging interval")
	}
}

func TestRectBasics(t *testing.T) {
	r := NewRect(0, 4, 2, 8)
	rows, cols := r.Shape()
	if rows != 4 || cols != 6 {
		t.Fatalf("Shape = (%d,%d), want (4,6)", rows, cols)
	}
	if r.Area() != 24 {
		t.Fatalf("Area = %d, want 24", r.Area())
	}
	if r.Empty() {
		t.Fatal("rect should not be empty")
	}
}

func TestRectIntersectAndOverlap(t *testing.T) {
	a := NewRect(0, 10, 0, 10)
	b := NewRect(5, 15, 5, 15)
	got := a.Intersect(b)
	if got != NewRect(5, 10, 5, 10) {
		t.Fatalf("Intersect = %v", got)
	}
	if !a.Overlaps(b) {
		t.Fatal("a and b overlap")
	}
	c := NewRect(0, 10, 10, 20) // shares an edge, no elements
	if a.Overlaps(c) {
		t.Fatal("edge-adjacent rects do not overlap")
	}
	if a.Intersect(c).Area() != 0 {
		t.Fatal("edge-adjacent intersection must be empty")
	}
}

func TestRectContainsAndLocalize(t *testing.T) {
	a := NewRect(10, 20, 30, 40)
	if !a.ContainsRect(NewRect(12, 18, 31, 39)) {
		t.Fatal("containment failed")
	}
	if a.ContainsRect(NewRect(12, 21, 31, 39)) {
		t.Fatal("should not contain row-overhanging rect")
	}
	loc := a.Localize(10, 30)
	if loc != NewRect(0, 10, 0, 10) {
		t.Fatalf("Localize = %v", loc)
	}
}

func TestGridShape(t *testing.T) {
	g := NewGrid(100, 100, 30, 40)
	tr, tc := g.GridShape()
	if tr != 4 || tc != 3 {
		t.Fatalf("GridShape = (%d,%d), want (4,3)", tr, tc)
	}
	if g.NumTiles() != 12 {
		t.Fatalf("NumTiles = %d", g.NumTiles())
	}
}

func TestGridTileBoundsRagged(t *testing.T) {
	g := NewGrid(100, 100, 30, 40)
	// Last row of tiles is ragged: rows 90..100.
	b := g.TileBounds(TileIdx{3, 2})
	if b != NewRect(90, 100, 80, 100) {
		t.Fatalf("ragged tile bounds = %v", b)
	}
	b = g.TileBounds(TileIdx{0, 0})
	if b != NewRect(0, 30, 0, 40) {
		t.Fatalf("first tile bounds = %v", b)
	}
}

func TestGridTileAt(t *testing.T) {
	g := NewGrid(100, 100, 30, 40)
	for _, c := range []struct {
		r, c int
		want TileIdx
	}{
		{0, 0, TileIdx{0, 0}},
		{29, 39, TileIdx{0, 0}},
		{30, 40, TileIdx{1, 1}},
		{99, 99, TileIdx{3, 2}},
	} {
		if got := g.TileAt(c.r, c.c); got != c.want {
			t.Errorf("TileAt(%d,%d) = %v, want %v", c.r, c.c, got, c.want)
		}
	}
}

func TestGridTileBoundsPanicOutOfRange(t *testing.T) {
	g := NewGrid(10, 10, 5, 5)
	defer func() {
		if recover() == nil {
			t.Fatal("TileBounds on invalid index should panic")
		}
	}()
	g.TileBounds(TileIdx{2, 0})
}

func TestOverlappingTilesExact(t *testing.T) {
	g := NewGrid(100, 100, 30, 40)
	tiles := g.OverlappingTiles(NewRect(25, 35, 0, 100))
	want := []TileIdx{{0, 0}, {0, 1}, {0, 2}, {1, 0}, {1, 1}, {1, 2}}
	if len(tiles) != len(want) {
		t.Fatalf("got %v, want %v", tiles, want)
	}
	for i := range want {
		if tiles[i] != want[i] {
			t.Fatalf("got %v, want %v", tiles, want)
		}
	}
}

func TestOverlappingTilesEmptySlice(t *testing.T) {
	g := NewGrid(100, 100, 30, 40)
	if tiles := g.OverlappingTiles(NewRect(50, 50, 0, 100)); tiles != nil {
		t.Fatalf("empty slice should overlap no tiles, got %v", tiles)
	}
}

func TestOverlappingTilesClipsToMatrix(t *testing.T) {
	g := NewGrid(100, 100, 30, 40)
	tiles := g.OverlappingTiles(NewRect(95, 300, 95, 400))
	if len(tiles) != 1 || tiles[0] != (TileIdx{3, 2}) {
		t.Fatalf("clipped overlap = %v", tiles)
	}
}

// Property: a tile is returned by OverlappingTiles iff its bounds overlap
// the (clipped) query slice.
func TestOverlappingTilesSoundAndComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		rows := 1 + rng.Intn(200)
		cols := 1 + rng.Intn(200)
		g := NewGrid(rows, cols, 1+rng.Intn(50), 1+rng.Intn(50))
		r0 := rng.Intn(rows + 10)
		r1 := r0 + rng.Intn(rows+10)
		c0 := rng.Intn(cols + 10)
		c1 := c0 + rng.Intn(cols+10)
		query := NewRect(r0, r1, c0, c1)
		got := map[TileIdx]bool{}
		for _, idx := range g.OverlappingTiles(query) {
			got[idx] = true
		}
		tr, tc := g.GridShape()
		for r := 0; r < tr; r++ {
			for c := 0; c < tc; c++ {
				idx := TileIdx{r, c}
				want := g.TileBounds(idx).Overlaps(query)
				if got[idx] != want {
					t.Fatalf("grid %+v query %v tile %v: returned=%v want=%v",
						g, query, idx, got[idx], want)
				}
			}
		}
	}
}

// Property: tiles exactly partition the matrix — every element belongs to
// exactly one tile, and tile areas sum to the matrix area.
func TestGridTilesPartitionMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		rows := 1 + rng.Intn(150)
		cols := 1 + rng.Intn(150)
		g := NewGrid(rows, cols, 1+rng.Intn(60), 1+rng.Intn(60))
		area := 0
		tr, tc := g.GridShape()
		for r := 0; r < tr; r++ {
			for c := 0; c < tc; c++ {
				area += g.TileBounds(TileIdx{r, c}).Area()
			}
		}
		if area != rows*cols {
			t.Fatalf("tile areas sum to %d, want %d (grid %+v)", area, rows*cols, g)
		}
		// Spot-check element membership.
		for probe := 0; probe < 20; probe++ {
			er, ec := rng.Intn(rows), rng.Intn(cols)
			idx := g.TileAt(er, ec)
			if b := g.TileBounds(idx); !b.Rows.Contains(er) || !b.Cols.Contains(ec) {
				t.Fatalf("TileAt(%d,%d)=%v but bounds %v exclude it", er, ec, idx, b)
			}
		}
	}
}

func TestRowColPanels(t *testing.T) {
	g := NewGrid(100, 200, 10, 10)
	rp := g.RowPanel(NewInterval(5, 15))
	if rp != NewRect(5, 15, 0, 200) {
		t.Fatalf("RowPanel = %v", rp)
	}
	cp := g.ColPanel(NewInterval(20, 30))
	if cp != NewRect(0, 100, 20, 30) {
		t.Fatalf("ColPanel = %v", cp)
	}
}

// AppendOverlappingTiles into a reused buffer allocates only while the
// buffer's capacity grows; OverlappingTiles allocates its answer once.
func TestAppendOverlappingTilesAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	g := NewGrid(100, 90, 7, 11)
	slice := NewRect(5, 60, 3, 80)
	want := g.OverlappingTiles(slice)
	buf := make([]TileIdx, 0, len(want))
	if got := testing.AllocsPerRun(100, func() { buf = g.AppendOverlappingTiles(buf[:0], slice) }); got != 0 {
		t.Errorf("AppendOverlappingTiles into a large enough buffer allocates %v objects, want 0", got)
	}
	if len(buf) != len(want) {
		t.Fatalf("appended %d tiles, want %d", len(buf), len(want))
	}
	for i := range want {
		if buf[i] != want[i] {
			t.Fatalf("tile %d: %v, want %v", i, buf[i], want[i])
		}
	}
	if got := testing.AllocsPerRun(100, func() { g.OverlappingTiles(slice) }); got != 1 {
		t.Errorf("OverlappingTiles allocates %v objects, want 1", got)
	}
	prefix := []TileIdx{{Row: -1, Col: -1}}
	if got := g.AppendOverlappingTiles(prefix, slice); len(got) != 1+len(want) || got[0] != prefix[0] {
		t.Errorf("AppendOverlappingTiles dropped or overwrote dst's elements")
	}
}
