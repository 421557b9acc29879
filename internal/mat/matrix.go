// Package mat provides the dense linear algebra needed by Gaussian process
// regression: matrices, vectors, Cholesky factorization, symmetric
// positive-definite solves, and the incremental bordered-inverse update used
// when a training point is added online (paper §5.2).
//
// The package is deliberately small and allocation-conscious rather than a
// general BLAS replacement. Matrices are dense, row-major float64. Dimension
// mismatches are programmer errors and panic, mirroring the behaviour of
// index-out-of-range on slices; numerical failures (e.g. factorizing a
// non-SPD matrix) are reported as error values.
package mat

import (
	"fmt"
	"math"
	"strings"
)

// Matrix is a dense, row-major matrix of float64 values.
// The zero value is an empty 0×0 matrix ready for use with Reset.
type Matrix struct {
	rows, cols int
	data       []float64
}

// New returns an r×c zero matrix.
func New(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: negative dimension %d×%d", r, c))
	}
	return &Matrix{rows: r, cols: c, data: make([]float64, r*c)}
}

// NewFromData returns an r×c matrix backed by data (not copied).
// len(data) must equal r*c.
func NewFromData(r, c int, data []float64) *Matrix {
	if len(data) != r*c {
		panic(fmt.Sprintf("mat: data length %d does not match %d×%d", len(data), r, c))
	}
	return &Matrix{rows: r, cols: c, data: data}
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}

// Dims returns the number of rows and columns.
func (m *Matrix) Dims() (r, c int) { return m.rows, m.cols }

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns v to the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

// Add accumulates v into the element at row i, column j.
func (m *Matrix) Add(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] += v
}

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of range for %d×%d matrix", i, j, m.rows, m.cols))
	}
}

// Row returns row i as a slice aliasing the matrix storage.
// Mutating the slice mutates the matrix.
func (m *Matrix) Row(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("mat: row %d out of range for %d×%d matrix", i, m.rows, m.cols))
	}
	return m.data[i*m.cols : (i+1)*m.cols]
}

// Col returns a copy of column j.
func (m *Matrix) Col(j int) []float64 {
	if j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: col %d out of range for %d×%d matrix", j, m.rows, m.cols))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = m.data[i*m.cols+j]
	}
	return out
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := New(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// Reset resizes m to r×c, reusing the backing store when it has capacity,
// and zeroes every element. It returns m. This is the scratch-buffer hook
// the inference hot path uses to avoid re-allocating Gram and work matrices
// of slowly varying size.
func (m *Matrix) Reset(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: negative dimension %d×%d", r, c))
	}
	n := r * c
	if cap(m.data) < n {
		m.data = make([]float64, n)
	} else {
		m.data = m.data[:n]
		for i := range m.data {
			m.data[i] = 0
		}
	}
	m.rows, m.cols = r, c
	return m
}

// Data returns the backing slice of m (row-major).
func (m *Matrix) Data() []float64 { return m.data }

// Scale multiplies every element of m by s in place and returns m.
func (m *Matrix) Scale(s float64) *Matrix {
	for i := range m.data {
		m.data[i] *= s
	}
	return m
}

// AddMat adds b into m element-wise in place and returns m.
func (m *Matrix) AddMat(b *Matrix) *Matrix {
	if m.rows != b.rows || m.cols != b.cols {
		panic(fmt.Sprintf("mat: add dims %d×%d ≠ %d×%d", m.rows, m.cols, b.rows, b.cols))
	}
	for i := range m.data {
		m.data[i] += b.data[i]
	}
	return m
}

// SubMat subtracts b from m element-wise in place and returns m.
func (m *Matrix) SubMat(b *Matrix) *Matrix {
	if m.rows != b.rows || m.cols != b.cols {
		panic(fmt.Sprintf("mat: sub dims %d×%d ≠ %d×%d", m.rows, m.cols, b.rows, b.cols))
	}
	for i := range m.data {
		m.data[i] -= b.data[i]
	}
	return m
}

// T returns the transpose of m as a new matrix.
func (m *Matrix) T() *Matrix {
	out := New(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			out.data[j*m.rows+i] = v
		}
	}
	return out
}

// Mul returns the matrix product a*b.
func Mul(a, b *Matrix) *Matrix {
	if a.cols != b.rows {
		panic(fmt.Sprintf("mat: mul dims %d×%d × %d×%d", a.rows, a.cols, b.rows, b.cols))
	}
	out := New(a.rows, b.cols)
	for i := 0; i < a.rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

// MulVec returns the matrix-vector product m*x.
func (m *Matrix) MulVec(x []float64) []float64 {
	if m.cols != len(x) {
		panic(fmt.Sprintf("mat: mulvec dims %d×%d × %d", m.rows, m.cols, len(x)))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = Dot(m.Row(i), x)
	}
	return out
}

// MulVecT returns mᵀ*x without forming the transpose.
func (m *Matrix) MulVecT(x []float64) []float64 {
	if m.rows != len(x) {
		panic(fmt.Sprintf("mat: mulvecT dims %d×%d ᵀ× %d", m.rows, m.cols, len(x)))
	}
	out := make([]float64, m.cols)
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		row := m.Row(i)
		for j, v := range row {
			out[j] += xi * v
		}
	}
	return out
}

// Trace returns the sum of diagonal elements of a square matrix.
func (m *Matrix) Trace() float64 {
	if m.rows != m.cols {
		panic(fmt.Sprintf("mat: trace of non-square %d×%d matrix", m.rows, m.cols))
	}
	var t float64
	for i := 0; i < m.rows; i++ {
		t += m.data[i*m.cols+i]
	}
	return t
}

// TraceProductSym returns tr(A·B) for square matrices of which at least one
// is symmetric: tr(AB) = Σ_{i,l} A_il·B_li = Σ_{i,l} A_il·B_il when B = Bᵀ.
// Both operands are walked row-contiguously, unlike the textbook
// tr(AB) = Σ_i (AB)_ii which strides down a column of B for every row of A.
func TraceProductSym(a, b *Matrix) float64 {
	if a.rows != a.cols || b.rows != b.cols || a.rows != b.rows {
		panic(fmt.Sprintf("mat: trace product dims %d×%d × %d×%d", a.rows, a.cols, b.rows, b.cols))
	}
	var s float64
	for i := range a.data {
		s += a.data[i] * b.data[i]
	}
	return s
}

// Symmetrize replaces m with (m + mᵀ)/2 in place; m must be square.
func (m *Matrix) Symmetrize() *Matrix {
	if m.rows != m.cols {
		panic(fmt.Sprintf("mat: symmetrize non-square %d×%d matrix", m.rows, m.cols))
	}
	for i := 0; i < m.rows; i++ {
		for j := i + 1; j < m.cols; j++ {
			v := (m.data[i*m.cols+j] + m.data[j*m.cols+i]) / 2
			m.data[i*m.cols+j] = v
			m.data[j*m.cols+i] = v
		}
	}
	return m
}

// MaxAbs returns the largest absolute element value, or 0 for empty matrices.
func (m *Matrix) MaxAbs() float64 {
	var max float64
	for _, v := range m.data {
		if a := math.Abs(v); a > max {
			max = a
		}
	}
	return max
}

// Equal reports whether a and b have the same shape and all elements within
// tol of each other.
func Equal(a, b *Matrix, tol float64) bool {
	if a.rows != b.rows || a.cols != b.cols {
		return false
	}
	for i := range a.data {
		if math.Abs(a.data[i]-b.data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d×%d[", m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		if i > 0 {
			sb.WriteString("; ")
		}
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "%.6g", m.data[i*m.cols+j])
		}
	}
	sb.WriteByte(']')
	return sb.String()
}
