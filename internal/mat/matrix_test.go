package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestNewAndAccessors(t *testing.T) {
	m := New(2, 3)
	if r, c := m.Dims(); r != 2 || c != 3 {
		t.Fatalf("Dims() = (%d,%d), want (2,3)", r, c)
	}
	m.Set(1, 2, 4.5)
	if got := m.At(1, 2); got != 4.5 {
		t.Fatalf("At(1,2) = %g, want 4.5", got)
	}
	m.Add(1, 2, 0.5)
	if got := m.At(1, 2); got != 5 {
		t.Fatalf("after Add, At(1,2) = %g, want 5", got)
	}
	if got := m.At(0, 0); got != 0 {
		t.Fatalf("zero element = %g, want 0", got)
	}
}

func TestNewFromData(t *testing.T) {
	m := NewFromData(2, 2, []float64{1, 2, 3, 4})
	if m.At(0, 1) != 2 || m.At(1, 0) != 3 {
		t.Fatalf("unexpected layout: %v", m)
	}
}

func TestIndexPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"At out of range", func() { New(2, 2).At(2, 0) }},
		{"Set out of range", func() { New(2, 2).Set(0, -1, 1) }},
		{"Row out of range", func() { New(2, 2).Row(5) }},
		{"Col out of range", func() { New(2, 2).Col(2) }},
		{"NewFromData bad len", func() { NewFromData(2, 2, []float64{1}) }},
		{"Mul bad dims", func() { Mul(New(2, 3), New(2, 3)) }},
		{"MulVec bad dims", func() { New(2, 3).MulVec([]float64{1}) }},
		{"Dot bad len", func() { Dot([]float64{1}, []float64{1, 2}) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic")
				}
			}()
			tc.fn()
		})
	}
}

func TestIdentity(t *testing.T) {
	id := Identity(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if id.At(i, j) != want {
				t.Fatalf("Identity(3).At(%d,%d) = %g, want %g", i, j, id.At(i, j), want)
			}
		}
	}
}

func TestMul(t *testing.T) {
	a := NewFromData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := NewFromData(3, 2, []float64{7, 8, 9, 10, 11, 12})
	got := Mul(a, b)
	want := NewFromData(2, 2, []float64{58, 64, 139, 154})
	if !Equal(got, want, 0) {
		t.Fatalf("Mul = %v, want %v", got, want)
	}
}

func TestMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randomMatrix(rng, 4, 4)
	if got := Mul(a, Identity(4)); !Equal(got, a, 1e-15) {
		t.Fatalf("A*I ≠ A")
	}
	if got := Mul(Identity(4), a); !Equal(got, a, 1e-15) {
		t.Fatalf("I*A ≠ A")
	}
}

func TestMulVecAndT(t *testing.T) {
	a := NewFromData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	x := []float64{1, 0, -1}
	got := a.MulVec(x)
	if got[0] != -2 || got[1] != -2 {
		t.Fatalf("MulVec = %v, want [-2 -2]", got)
	}
	gotT := a.T().MulVec([]float64{1, 1})
	want := []float64{5, 7, 9}
	for i := range want {
		if gotT[i] != want[i] {
			t.Fatalf("T().MulVec = %v, want %v", gotT, want)
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randomMatrix(rng, 3, 5)
	if !Equal(a.T().T(), a, 0) {
		t.Fatalf("(Aᵀ)ᵀ ≠ A")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := NewFromData(1, 2, []float64{1, 2})
	b := a.Clone()
	b.Set(0, 0, 9)
	if a.At(0, 0) != 1 {
		t.Fatalf("Clone shares storage")
	}
}

func TestRowAliasesStorage(t *testing.T) {
	a := New(2, 2)
	a.Row(1)[0] = 7
	if a.At(1, 0) != 7 {
		t.Fatalf("Row should alias storage")
	}
}

func TestMaxAbs(t *testing.T) {
	a := NewFromData(1, 3, []float64{-5, 2, 3})
	if got := a.MaxAbs(); got != 5 {
		t.Fatalf("MaxAbs = %g, want 5", got)
	}
	if got := New(0, 0).MaxAbs(); got != 0 {
		t.Fatalf("MaxAbs of empty = %g, want 0", got)
	}
}

func TestString(t *testing.T) {
	a := NewFromData(2, 2, []float64{1, 2, 3, 4})
	if got := a.String(); got != "2×2[1 2; 3 4]" {
		t.Fatalf("String = %q", got)
	}
}

// add returns a + b element-wise.
func add(a, b *Matrix) *Matrix {
	out := a.Clone()
	for i := range out.data {
		out.data[i] += b.data[i]
	}
	return out
}

// Property: matrix multiplication distributes over addition.
func TestQuickMulDistributes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(6)
		m := 1 + r.Intn(6)
		p := 1 + r.Intn(6)
		a := randomMatrix(r, n, m)
		b := randomMatrix(r, m, p)
		c := randomMatrix(r, m, p)
		left := Mul(a, add(b, c))
		right := add(Mul(a, b), Mul(a, c))
		return Equal(left, right, 1e-9)
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: (AB)ᵀ = BᵀAᵀ.
func TestQuickTransposeOfProduct(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(5)
		m := 1 + r.Intn(5)
		p := 1 + r.Intn(5)
		a := randomMatrix(r, n, m)
		b := randomMatrix(r, m, p)
		return Equal(Mul(a, b).T(), Mul(b.T(), a.T()), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func randomMatrix(rng *rand.Rand, r, c int) *Matrix {
	m := New(r, c)
	for i := range m.data {
		m.data[i] = rng.NormFloat64()
	}
	return m
}

func BenchmarkMul64(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := randomMatrix(rng, 64, 64)
	c := randomMatrix(rng, 64, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Mul(a, c)
	}
}

func BenchmarkMulVec256(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := randomMatrix(rng, 256, 256)
	x := make([]float64, 256)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.MulVec(x)
	}
}

// Test constructors and comparisons: production code builds matrices with
// New and Reset and never compares or copies whole matrices.

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

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := New(m.rows, m.cols)
	copy(out.data, m.data)
	return out
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
