// Package tile implements local dense matrices and the GEMM kernels used for
// per-tile computation. Matrices are row-major float32, matching the FP32
// GEMMs evaluated in the paper. A Matrix may either own its storage or be a
// strided view into another matrix, which is how tile slices ("C(1,1)[...]"
// in Figure 1) are expressed without copying.
package tile

import (
	"fmt"
	"math"
	"math/rand"
)

// Matrix is a row-major float32 matrix, possibly a strided view into a
// larger buffer. Element (i, j) lives at Data[i*Stride+j].
type Matrix struct {
	Rows, Cols int
	Stride     int
	Data       []float32
}

// New allocates a zeroed rows×cols matrix with a dense (Stride == Cols)
// layout.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tile: invalid shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Stride: cols, Data: make([]float32, rows*cols)}
}

// FromSlice wraps an existing buffer as a dense rows×cols matrix. The buffer
// must hold at least rows*cols elements; the matrix aliases it.
func FromSlice(rows, cols int, data []float32) *Matrix {
	if len(data) < rows*cols {
		panic(fmt.Sprintf("tile: buffer of %d elements too small for %dx%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Stride: cols, Data: data[:rows*cols]}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float32 {
	m.checkIndex(i, j)
	return m.Data[i*m.Stride+j]
}

// Set stores v at element (i, j).
func (m *Matrix) Set(i, j int, v float32) {
	m.checkIndex(i, j)
	m.Data[i*m.Stride+j] = v
}

func (m *Matrix) checkIndex(i, j int) {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("tile: index (%d,%d) out of %dx%d matrix", i, j, m.Rows, m.Cols))
	}
}

// View returns a strided view of the submatrix starting at (row, col) with
// the given shape. The view aliases m's storage: writes through the view are
// visible in m.
func (m *Matrix) View(row, col, rows, cols int) *Matrix {
	dst := new(Matrix)
	m.ViewInto(dst, row, col, rows, cols)
	return dst
}

// ViewInto fills dst with the view m.View(row, col, rows, cols) without
// allocating, for hot paths that keep view headers in recycled storage.
func (m *Matrix) ViewInto(dst *Matrix, row, col, rows, cols int) {
	if row < 0 || col < 0 || rows < 0 || cols < 0 || row+rows > m.Rows || col+cols > m.Cols {
		panic(fmt.Sprintf("tile: view (%d,%d)+%dx%d out of %dx%d matrix", row, col, rows, cols, m.Rows, m.Cols))
	}
	if rows == 0 || cols == 0 {
		*dst = Matrix{Rows: rows, Cols: cols, Stride: m.Stride}
		return
	}
	start := row*m.Stride + col
	end := (row+rows-1)*m.Stride + col + cols
	*dst = Matrix{Rows: rows, Cols: cols, Stride: m.Stride, Data: m.Data[start:end]}
}

// IsDense reports whether the matrix rows are contiguous in memory.
func (m *Matrix) IsDense() bool { return m.Stride == m.Cols || m.Rows <= 1 }

// Clone returns a dense deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := New(m.Rows, m.Cols)
	out.CopyFrom(m)
	return out
}

// CopyFrom copies src into m. Shapes must match.
func (m *Matrix) CopyFrom(src *Matrix) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic(fmt.Sprintf("tile: copy shape mismatch %dx%d <- %dx%d", m.Rows, m.Cols, src.Rows, src.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		copy(m.Data[i*m.Stride:i*m.Stride+m.Cols], src.Data[i*src.Stride:i*src.Stride+src.Cols])
	}
}

// Zero sets every element of m to zero.
func (m *Matrix) Zero() {
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Stride : i*m.Stride+m.Cols]
		for j := range row {
			row[j] = 0
		}
	}
}

// Fill sets every element of m to v.
func (m *Matrix) Fill(v float32) {
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Stride : i*m.Stride+m.Cols]
		for j := range row {
			row[j] = v
		}
	}
}

// FillRandom fills m with uniform values in [-1, 1) from rng.
func (m *Matrix) FillRandom(rng *rand.Rand) {
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Stride : i*m.Stride+m.Cols]
		for j := range row {
			row[j] = rng.Float32()*2 - 1
		}
	}
}

// AddFrom accumulates src into m element-wise (m += src). Shapes must match.
func (m *Matrix) AddFrom(src *Matrix) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic(fmt.Sprintf("tile: add shape mismatch %dx%d += %dx%d", m.Rows, m.Cols, src.Rows, src.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		AddInto(m.Data[i*m.Stride:i*m.Stride+m.Cols], src.Data[i*src.Stride:i*src.Stride+src.Cols])
	}
}

// Scale multiplies every element of m by alpha.
func (m *Matrix) Scale(alpha float32) {
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Stride : i*m.Stride+m.Cols]
		for j := range row {
			row[j] *= alpha
		}
	}
}

// Transpose returns a newly allocated transpose of m.
func (m *Matrix) Transpose() *Matrix {
	out := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Data[j*out.Stride+i] = m.Data[i*m.Stride+j]
		}
	}
	return out
}

// Equal reports whether m and other have identical shape and elements.
func (m *Matrix) Equal(other *Matrix) bool {
	return m.MaxAbsDiff(other) == 0
}

// MaxAbsDiff returns the max absolute element-wise difference between two
// equally shaped matrices. It panics on shape mismatch.
func (m *Matrix) MaxAbsDiff(other *Matrix) float64 {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		panic(fmt.Sprintf("tile: diff shape mismatch %dx%d vs %dx%d", m.Rows, m.Cols, other.Rows, other.Cols))
	}
	var worst float64
	for i := 0; i < m.Rows; i++ {
		a := m.Data[i*m.Stride : i*m.Stride+m.Cols]
		b := other.Data[i*other.Stride : i*other.Stride+other.Cols]
		for j := range a {
			d := math.Abs(float64(a[j]) - float64(b[j]))
			if d > worst {
				worst = d
			}
		}
	}
	return worst
}

// AllClose reports whether every element of m is within tol of other,
// where tol scales with the magnitude of the values (mixed absolute/relative
// tolerance suitable for float32 GEMM verification).
func (m *Matrix) AllClose(other *Matrix, tol float64) bool {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		return false
	}
	for i := 0; i < m.Rows; i++ {
		a := m.Data[i*m.Stride : i*m.Stride+m.Cols]
		b := other.Data[i*other.Stride : i*other.Stride+other.Cols]
		for j := range a {
			av, bv := float64(a[j]), float64(b[j])
			scale := math.Max(1, math.Max(math.Abs(av), math.Abs(bv)))
			if math.Abs(av-bv) > tol*scale {
				return false
			}
		}
	}
	return true
}

// Norm1 returns the sum of absolute values of all elements.
func (m *Matrix) Norm1() float64 {
	var s float64
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Stride : i*m.Stride+m.Cols]
		for j := range row {
			s += math.Abs(float64(row[j]))
		}
	}
	return s
}

func (m *Matrix) String() string {
	return fmt.Sprintf("Matrix{%dx%d stride %d}", m.Rows, m.Cols, m.Stride)
}
