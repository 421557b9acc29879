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
