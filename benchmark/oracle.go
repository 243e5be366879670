package main

import (
	"math"
	"math/rand"

	"slicing/internal/tile"
)

// oracleSamples is how many (i, j) entries of a result the oracle checks;
// a result with no more entries than this is checked in full.
const oracleSamples = 4096

// oracleTol is the relative tolerance: an entry may differ from the
// float64 reference by this share of Σ|a_ik·b_kj|, the scale float32
// rounding error grows with.
const oracleTol = 1e-4

// oracle checks sampled entries of C = A·B against a float64 dot product
// of the gathered A row and B column. It shares no code with the kernels.
type oracle struct{ seed int64 }

func newOracle(seed int64) oracle { return oracle{seed} }

// entries returns the (i, j) positions checked in a rows×cols result. The
// positions depend only on the oracle's seed and the shape.
func (o oracle) entries(rows, cols int) [][2]int {
	if rows*cols <= oracleSamples {
		out := make([][2]int, 0, rows*cols)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				out = append(out, [2]int{i, j})
			}
		}
		return out
	}
	rng := rand.New(rand.NewSource(o.seed))
	out := make([][2]int, oracleSamples)
	for s := range out {
		out[s] = [2]int{rng.Intn(rows), rng.Intn(cols)}
	}
	return out
}

// check returns how many sampled entries of c are wrong.
func (o oracle) check(c, a, b *tile.Matrix) (wrong int) {
	for _, e := range o.entries(c.Rows, c.Cols) {
		i, j := e[0], e[1]
		var ref, scale float64
		for l := 0; l < a.Cols; l++ {
			p := float64(a.Data[i*a.Stride+l]) * float64(b.Data[l*b.Stride+j])
			ref += p
			scale += math.Abs(p)
		}
		got := float64(c.Data[i*c.Stride+j])
		if !(math.Abs(got-ref) <= oracleTol*scale+1e-30) {
			wrong++
		}
	}
	return wrong
}

// corrupt damages one checked entry of c.
func (o oracle) corrupt(c *tile.Matrix) {
	e := o.entries(c.Rows, c.Cols)[0]
	c.Data[e[0]*c.Stride+e[1]] += 1
}
