package mat

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// The packed factor must make the in-place solve entry points truly
// allocation-free: these are the per-sample inner loops of GP inference, so
// a single stray allocation here multiplies by ~10⁴ per input tuple.
func TestSolveToVariantsZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const n = 64
	a := randomSPD(rng, n)
	var c Cholesky
	if err := c.Factorize(a); err != nil {
		t.Fatal(err)
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	dst := make([]float64, n)
	if allocs := testing.AllocsPerRun(100, func() {
		c.ForwardSolveTo(dst, b)
	}); allocs != 0 {
		t.Fatalf("ForwardSolveTo allocates %.1f per run, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		c.SolveVecTo(dst, b)
	}); allocs != 0 {
		t.Fatalf("SolveVecTo allocates %.1f per run, want 0", allocs)
	}
	d1, d2, d3 := make([]float64, n), make([]float64, n), make([]float64, n)
	if allocs := testing.AllocsPerRun(100, func() {
		c.ForwardSolve4To(dst, d1, d2, d3, b, b, b, b)
	}); allocs != 0 {
		t.Fatalf("ForwardSolve4To allocates %.1f per run, want 0", allocs)
	}
}

// Steady-state Extend must not allocate once the packed store's capacity
// has grown past the working size (the capacity-doubling contract).
func TestExtendAmortizedZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	const n = 32
	full := randomSPD(rng, n)
	var warm Cholesky
	// Warm the store to full capacity, then rebuild from scratch inside it.
	for i := 0; i < n; i++ {
		k := make([]float64, i)
		for j := 0; j < i; j++ {
			k[j] = full.At(j, i)
		}
		if err := warm.Extend(k, full.At(i, i)); err != nil {
			t.Fatal(err)
		}
	}
	sub := New(n-1, n-1)
	for i := 0; i < n-1; i++ {
		copy(sub.Row(i), full.Row(i)[:n-1])
	}
	k := make([]float64, n-1)
	for j := 0; j < n-1; j++ {
		k[j] = full.At(j, n-1)
	}
	if err := warm.Factorize(sub); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if err := warm.Extend(k, full.At(n-1, n-1)); err != nil {
			t.Fatal(err)
		}
		// Shrink back by refactorizing in the retained store.
		if err := warm.Factorize(sub); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("warm Extend allocates %.1f per run, want 0", allocs)
	}
}

// SolveVecTo and ForwardSolveTo document that dst may alias b.
func TestSolveToAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const n = 17
	a := randomSPD(rng, n)
	var c Cholesky
	if err := c.Factorize(a); err != nil {
		t.Fatal(err)
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	want := c.SolveVec(b)
	got := CloneVec(b)
	c.SolveVecTo(got, got)
	for i := range want {
		if !almostEqual(got[i], want[i], 1e-12) {
			t.Fatalf("aliased SolveVecTo[%d] = %g, want %g", i, got[i], want[i])
		}
	}
	wantF := c.ForwardSolve(b)
	gotF := CloneVec(b)
	c.ForwardSolveTo(gotF, gotF)
	for i := range wantF {
		if !almostEqual(gotF[i], wantF[i], 1e-12) {
			t.Fatalf("aliased ForwardSolveTo[%d] = %g, want %g", i, gotF[i], wantF[i])
		}
	}
}

// Interleaved Extend/Clone/SolveVec sequences over the capacity-doubling
// store must agree with a from-scratch factorization to 1e-10: clones must
// not share mutable state with the original, and failed extends must leave
// the factorization untouched.
func TestExtendInterleavedAgreesWithFactorize(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	const n = 40
	full := randomSPD(rng, n)
	var inc Cholesky
	clones := make([]Cholesky, 0, 4)
	cloneAt := make([]int, 0, 4)
	for i := 0; i < n; i++ {
		k := make([]float64, i)
		for j := 0; j < i; j++ {
			k[j] = full.At(j, i)
		}
		if err := inc.Extend(k, full.At(i, i)); err != nil {
			t.Fatalf("extend %d: %v", i, err)
		}
		if i%11 == 3 {
			clones = append(clones, inc.Clone())
			cloneAt = append(cloneAt, i+1)
		}
		if i%7 == 5 {
			// A failing speculative extend (border duplicating column 0
			// with a too-small diagonal, making the Schur complement
			// −1) must leave the factorization unchanged.
			bad := make([]float64, i+1)
			for j := 0; j <= i; j++ {
				bad[j] = full.At(j, 0)
			}
			if err := inc.Extend(bad, full.At(0, 0)-1); !errors.Is(err, ErrNotSPD) {
				t.Fatalf("duplicate border extend: err = %v, want ErrNotSPD", err)
			}
			if inc.Size() != i+1 {
				t.Fatalf("failed extend changed size to %d", inc.Size())
			}
		}
		// Solve against the incrementally built factor and check the
		// residual at every step.
		b := make([]float64, i+1)
		for j := range b {
			b[j] = rng.NormFloat64()
		}
		x := inc.SolveVec(b)
		sub := New(i+1, i+1)
		for r := 0; r <= i; r++ {
			copy(sub.Row(r), full.Row(r)[:i+1])
		}
		res := sub.MulVec(x)
		for j := range res {
			if math.Abs(res[j]-b[j]) > 1e-8*(1+math.Abs(b[j])) {
				t.Fatalf("step %d: residual[%d] = %g", i, j, res[j]-b[j])
			}
		}
	}
	// The final factor matches a from-scratch factorization to 1e-10.
	var batch Cholesky
	if err := batch.Factorize(full); err != nil {
		t.Fatal(err)
	}
	if !Equal(inc.L(), batch.L(), 1e-10) {
		t.Fatalf("interleaved factor ≠ batch factor")
	}
	// Each clone froze the factor at its snapshot size and still matches a
	// from-scratch factorization of its principal minor.
	for ci, cl := range clones {
		sz := cloneAt[ci]
		sub := New(sz, sz)
		for r := 0; r < sz; r++ {
			copy(sub.Row(r), full.Row(r)[:sz])
		}
		var want Cholesky
		if err := want.Factorize(sub); err != nil {
			t.Fatal(err)
		}
		if cl.Size() != sz {
			t.Fatalf("clone %d size %d, want %d", ci, cl.Size(), sz)
		}
		if !Equal(cl.L(), want.L(), 1e-10) {
			t.Fatalf("clone %d diverged from batch factorization", ci)
		}
	}
}

// FactorizeJittered no longer clones its input: the jitter is folded into
// the running pivot, so the input matrix must come back bit-identical even
// on the retry path.
func TestFactorizeJitteredLeavesInputUnmodified(t *testing.T) {
	a := NewFromData(2, 2, []float64{1, 1, 1, 1}) // singular: forces retries
	orig := a.Clone()
	var c Cholesky
	if _, err := c.FactorizeJittered(a, 1e-10, 12); err != nil {
		t.Fatal(err)
	}
	if !Equal(a, orig, 0) {
		t.Fatalf("FactorizeJittered modified its input: %v", a)
	}
}

func TestInverseToMatchesInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	a := randomSPD(rng, 9)
	var c Cholesky
	if err := c.Factorize(a); err != nil {
		t.Fatal(err)
	}
	dst := New(9, 9)
	if !Equal(c.InverseTo(dst), c.Inverse(), 1e-12) {
		t.Fatalf("InverseTo ≠ Inverse")
	}
	if allocs := testing.AllocsPerRun(20, func() {
		c.InverseTo(dst)
	}); allocs != 0 {
		t.Fatalf("InverseTo allocates %.1f per run, want 0", allocs)
	}
}

func TestMatrixReset(t *testing.T) {
	m := New(3, 4)
	m.Set(1, 2, 5)
	data := m.data
	m.Reset(2, 2)
	if r, c := m.Dims(); r != 2 || c != 2 {
		t.Fatalf("Reset dims = %d×%d", r, c)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("Reset left stale value at (%d,%d)", i, j)
			}
		}
	}
	if &m.data[0] != &data[0] {
		t.Fatalf("Reset reallocated despite sufficient capacity")
	}
	m.Reset(10, 10) // must grow
	if r, c := m.Dims(); r != 10 || c != 10 {
		t.Fatalf("grown Reset dims = %d×%d", r, c)
	}
}
