package mat

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotSPD is returned when a matrix cannot be Cholesky-factorized because
// it is not (numerically) symmetric positive definite.
var ErrNotSPD = errors.New("mat: matrix is not symmetric positive definite")

// Cholesky holds a lower-triangular factor L with A = L Lᵀ.
// The zero value is empty; use Factorize to populate it.
//
// The factor is stored as a packed row-major lower triangle: row i occupies
// data[i(i+1)/2 : i(i+1)/2+i+1]. Row offsets are independent of the matrix
// size, so Extend — the incremental bordered update used by the online
// tuning step of OLGAPRO (paper §5.2) — appends one row to the backing store
// with capacity doubling: amortized O(n²) per add and no per-call copy of
// the existing factor, where the dense representation forced an O(n²) clone
// on every Extend.
type Cholesky struct {
	data []float64 // packed row-major lower triangle
	n    int
}

// rowL returns packed row i of L: elements L[i][0..i].
func (c *Cholesky) rowL(i int) []float64 {
	off := i * (i + 1) / 2
	return c.data[off : off+i+1]
}

// grow resizes the packed store to hold an n×n factor, reusing capacity.
func (c *Cholesky) grow(n int) {
	need := n * (n + 1) / 2
	if cap(c.data) < need {
		newCap := 2 * cap(c.data)
		if newCap < need {
			newCap = need
		}
		nd := make([]float64, need, newCap)
		copy(nd, c.data[:min(len(c.data), need)])
		c.data = nd
	}
	c.data = c.data[:need]
}

// Reserve grows the packed store's capacity to hold an n×n factor without
// changing the factor, so n successive Extends allocate nothing.
func (c *Cholesky) Reserve(n int) {
	if need := n * (n + 1) / 2; cap(c.data) < need {
		nd := make([]float64, len(c.data), need)
		copy(nd, c.data)
		c.data = nd
	}
}

// Factorize computes the Cholesky factorization of the symmetric positive
// definite matrix a. Only the lower triangle of a is read, and a is never
// modified. The packed backing store is reused across calls.
// It returns ErrNotSPD if a pivot is non-positive.
func (c *Cholesky) Factorize(a *Matrix) error {
	return c.factorize(a, 0)
}

// factorize computes the factorization of a + jitter·I without materializing
// the jittered matrix: the jitter is added to each diagonal pivot on the fly,
// which is what lets FactorizeJittered retry without cloning a.
func (c *Cholesky) factorize(a *Matrix, jitter float64) error {
	r, co := a.Dims()
	if r != co {
		panic(fmt.Sprintf("mat: cholesky of non-square %d×%d matrix", r, co))
	}
	c.grow(r)
	for i := 0; i < r; i++ {
		li := c.rowL(i)
		ai := a.Row(i)
		for j := 0; j <= i; j++ {
			sum := ai[j]
			if i == j {
				sum += jitter
			}
			lj := c.rowL(j)
			for k := 0; k < j; k++ {
				sum -= li[k] * lj[k]
			}
			if i == j {
				if sum <= 0 || math.IsNaN(sum) {
					c.data = c.data[:0]
					c.n = 0
					return fmt.Errorf("%w: pivot %d is %g", ErrNotSPD, i, sum)
				}
				li[j] = math.Sqrt(sum)
			} else {
				li[j] = sum / lj[j]
			}
		}
	}
	c.n = r
	return nil
}

// FactorizeJittered behaves like Factorize but, on failure, retries with an
// increasing diagonal jitter (starting at jitter0, multiplied by 10 each of
// maxTries attempts). This is the standard numerical remedy for ill-
// conditioned kernel Gram matrices. The jitter is applied to the running
// pivot inside the factorization itself, so no work copy of a is made and a
// is left untouched. It returns the jitter actually used.
func (c *Cholesky) FactorizeJittered(a *Matrix, jitter0 float64, maxTries int) (float64, error) {
	if err := c.factorize(a, 0); err == nil {
		return 0, nil
	}
	jit := jitter0
	for t := 0; t < maxTries; t++ {
		if err := c.factorize(a, jit); err == nil {
			return jit, nil
		}
		jit *= 10
	}
	return 0, fmt.Errorf("%w after %d jitter attempts (max jitter %g)", ErrNotSPD, maxTries, jit/10)
}

// Size returns the dimension of the factored matrix.
func (c *Cholesky) Size() int { return c.n }

// L returns the lower-triangular factor as a freshly allocated dense matrix.
// Use LRow for allocation-free access to one row of the packed factor.
func (c *Cholesky) L() *Matrix {
	out := New(c.n, c.n)
	for i := 0; i < c.n; i++ {
		copy(out.Row(i)[:i+1], c.rowL(i))
	}
	return out
}

// LRow returns row i of L — the elements L[i][0..i] — aliasing the packed
// backing store. The slice is invalidated by the next Factorize or Extend.
func (c *Cholesky) LRow(i int) []float64 { return c.rowL(i) }

// SolveVec solves A x = b and returns a newly allocated x, where A = L Lᵀ.
// Use SolveVecTo to reuse a caller-provided buffer.
func (c *Cholesky) SolveVec(b []float64) []float64 {
	return c.SolveVecTo(make([]float64, c.n), b)
}

// SolveVecTo solves A x = b into dst, which must have length Size.
// dst may alias b. It returns dst.
func (c *Cholesky) SolveVecTo(dst, b []float64) []float64 {
	if len(b) != c.n || len(dst) != c.n {
		panic(fmt.Sprintf("mat: cholesky solve lengths %d, %d ≠ %d", len(dst), len(b), c.n))
	}
	c.forwardTo(dst, b)
	c.backwardInPlace(dst)
	return dst
}

// forwardTo solves L y = b into dst; dst may alias b.
func (c *Cholesky) forwardTo(dst, b []float64) {
	for i := 0; i < c.n; i++ {
		row := c.rowL(i)
		sum := b[i]
		for k := 0; k < i; k++ {
			sum -= row[k] * dst[k]
		}
		dst[i] = sum / row[i]
	}
}

// backwardInPlace solves Lᵀ x = y, overwriting y with x. Rather than walking
// a column of L per unknown — an O(n²) strided, cache-hostile traversal —
// it walks rows: once x[i] is fixed, row i of L carries exactly x[i]'s
// contribution to every remaining unknown, so the row is subtracted from the
// prefix in one contiguous pass.
func (c *Cholesky) backwardInPlace(y []float64) {
	for i := c.n - 1; i >= 0; i-- {
		row := c.rowL(i)
		xi := y[i] / row[i]
		y[i] = xi
		for k := 0; k < i; k++ {
			y[k] -= row[k] * xi
		}
	}
}

// ForwardSolve solves L y = b into a newly allocated y, exposing the
// half-solve needed to compute posterior variances kᵀ K⁻¹ k = ‖L⁻¹k‖².
// Use ForwardSolveTo to reuse a caller-provided buffer.
func (c *Cholesky) ForwardSolve(b []float64) []float64 {
	return c.ForwardSolveTo(make([]float64, c.n), b)
}

// ForwardSolveTo solves L y = b into dst, which must have length Size.
// dst may alias b. It returns dst.
func (c *Cholesky) ForwardSolveTo(dst, b []float64) []float64 {
	if len(b) != c.n || len(dst) != c.n {
		panic(fmt.Sprintf("mat: cholesky forward lengths %d, %d ≠ %d", len(dst), len(b), c.n))
	}
	c.forwardTo(dst, b)
	return dst
}

// ForwardSolve4To solves L y_j = b_j into dst_j for four right-hand sides in
// one sweep over L. Each row of L is loaded once for all four, and the four
// independent divide-bound dependency chains overlap; every dst_j gets
// exactly ForwardSolveTo's operation order, so the results agree bit for
// bit. Every slice must have length Size; dst_j may alias b_j, but no dst
// may alias another right-hand side or destination.
func (c *Cholesky) ForwardSolve4To(dst0, dst1, dst2, dst3, b0, b1, b2, b3 []float64) {
	n := c.n
	if len(dst0) != n || len(dst1) != n || len(dst2) != n || len(dst3) != n ||
		len(b0) != n || len(b1) != n || len(b2) != n || len(b3) != n {
		panic(fmt.Sprintf("mat: cholesky forward4 lengths %d,%d,%d,%d / %d,%d,%d,%d ≠ %d",
			len(dst0), len(dst1), len(dst2), len(dst3), len(b0), len(b1), len(b2), len(b3), n))
	}
	for i := 0; i < n; i++ {
		row := c.rowL(i)
		s0, s1, s2, s3 := b0[i], b1[i], b2[i], b3[i]
		p0, p1, p2, p3 := dst0[:i], dst1[:i], dst2[:i], dst3[:i]
		for k, r := range row[:i] {
			s0 -= r * p0[k]
			s1 -= r * p1[k]
			s2 -= r * p2[k]
			s3 -= r * p3[k]
		}
		d := row[i]
		dst0[i], dst1[i], dst2[i], dst3[i] = s0/d, s1/d, s2/d, s3/d
	}
}

// BackSolveTo solves Lᵀ x = y into dst, which must have length Size.
// dst may alias y. It completes a ForwardSolveTo half-solve into a full
// A⁻¹ application: x = L⁻ᵀ(L⁻¹b) = A⁻¹b. It returns dst.
func (c *Cholesky) BackSolveTo(dst, y []float64) []float64 {
	if len(y) != c.n || len(dst) != c.n {
		panic(fmt.Sprintf("mat: cholesky backward lengths %d, %d ≠ %d", len(dst), len(y), c.n))
	}
	if c.n > 0 && &dst[0] != &y[0] {
		copy(dst, y)
	}
	c.backwardInPlace(dst)
	return dst
}

// Inverse returns A⁻¹ computed from the factorization.
func (c *Cholesky) Inverse() *Matrix {
	return c.InverseTo(New(c.n, c.n))
}

// InverseTo computes A⁻¹ into dst, which must be Size×Size, and returns dst.
// It performs no allocation: because A⁻¹ is symmetric, column i can be
// solved directly into row i of dst, using the row itself as the basis
// vector e_i (the in-place solves permit aliasing).
func (c *Cholesky) InverseTo(dst *Matrix) *Matrix {
	if dst.Rows() != c.n || dst.Cols() != c.n {
		panic(fmt.Sprintf("mat: inverse dst %d×%d ≠ %d×%d", dst.Rows(), dst.Cols(), c.n, c.n))
	}
	for i := 0; i < c.n; i++ {
		row := dst.Row(i)
		for j := range row {
			row[j] = 0
		}
		row[i] = 1
		c.SolveVecTo(row, row)
	}
	return dst
}

// LogDet returns log det A = 2 Σ log L_ii.
func (c *Cholesky) LogDet() float64 {
	var s float64
	for i := 0; i < c.n; i++ {
		s += math.Log(c.rowL(i)[i])
	}
	return 2 * s
}

// Quadratic returns bᵀ A⁻¹ b using one forward solve (allocating).
func (c *Cholesky) Quadratic(b []float64) float64 {
	return c.QuadraticTo(make([]float64, c.n), b)
}

// QuadraticTo returns bᵀ A⁻¹ b using dst (length Size) as the forward-solve
// scratch buffer; dst may alias b.
func (c *Cholesky) QuadraticTo(dst, b []float64) float64 {
	c.ForwardSolveTo(dst, b)
	return Dot(dst, dst)
}

// Extend grows the factorization of A to that of the bordered matrix
//
//	A' = [ A  k ]
//	     [ kᵀ κ ]
//
// in O(n²): the new row of L is l = L⁻¹k with diagonal √(κ − lᵀl).
// The packed layout keeps existing rows in place, so the update only appends
// one row to the backing store (doubling its capacity when exhausted) and is
// allocation-free in the amortized steady state. On failure the store is
// rolled back and the factorization is unchanged.
// It returns ErrNotSPD if the Schur complement κ − lᵀl is non-positive.
func (c *Cholesky) Extend(k []float64, kappa float64) error {
	if len(k) != c.n {
		panic(fmt.Sprintf("mat: cholesky extend length %d ≠ %d", len(k), c.n))
	}
	off := len(c.data)
	c.grow(c.n + 1)
	row := c.data[off:]
	copy(row[:c.n], k)
	c.forwardTo(row[:c.n], row[:c.n])
	schur := kappa - Dot(row[:c.n], row[:c.n])
	if schur <= 0 || math.IsNaN(schur) {
		c.data = c.data[:off]
		return fmt.Errorf("%w: extend Schur complement %g", ErrNotSPD, schur)
	}
	row[c.n] = math.Sqrt(schur)
	c.n++
	return nil
}

// Rank1Update updates the factorization of A to that of A + v vᵀ in O(n²)
// without re-factorizing, using the hyperbolic-rotation (LINPACK dchud style)
// sweep: column j of the update vector is absorbed into pivot j by the Givens
// rotation with c = L'ⱼⱼ/Lⱼⱼ, s = vⱼ/Lⱼⱼ, and the remainder of v is rotated
// against column j of L. Because A + vvᵀ is positive definite whenever A is,
// the sweep cannot fail for finite inputs; NaN/Inf contamination is still
// detected and reported as ErrNotSPD with the factor left unusable for
// further updates (callers should refactorize).
//
// v must have length Size and is OVERWRITTEN (it is the sweep's working
// buffer); pass a scratch copy to keep the original. This is the primitive
// behind the sparse-GP information-matrix maintenance: absorbing one
// observation into M = σ²I + ΦᵀΦ is exactly a rank-1 update of its factor.
func (c *Cholesky) Rank1Update(v []float64) error {
	if len(v) != c.n {
		panic(fmt.Sprintf("mat: cholesky rank-1 update length %d ≠ %d", len(v), c.n))
	}
	for j := 0; j < c.n; j++ {
		rowj := c.rowL(j)
		ljj := rowj[j]
		r := math.Hypot(ljj, v[j])
		if r <= 0 || math.IsNaN(r) || math.IsInf(r, 0) {
			return fmt.Errorf("%w: rank-1 update pivot %d is %g", ErrNotSPD, j, r)
		}
		cs := r / ljj
		sn := v[j] / ljj
		rowj[j] = r
		// Column j of L lives strided across the later packed rows.
		for k := j + 1; k < c.n; k++ {
			rowk := c.rowL(k)
			lkj := (rowk[j] + sn*v[k]) / cs
			v[k] = cs*v[k] - sn*lkj
			rowk[j] = lkj
		}
	}
	return nil
}

// BorderedInverse computes the inverse of the bordered matrix
//
//	A' = [ A  k ]
//	     [ kᵀ κ ]
//
// from inv = A⁻¹ using the block-matrix inversion formula (paper §5.2):
// with u = A⁻¹k and s = κ − kᵀu,
//
//	A'⁻¹ = [ A⁻¹ + uuᵀ/s   −u/s ]
//	       [ −uᵀ/s          1/s ]
//
// It returns ErrNotSPD when the Schur complement s is non-positive.
func BorderedInverse(inv *Matrix, k []float64, kappa float64) (*Matrix, error) {
	n := inv.Rows()
	if inv.Cols() != n {
		panic(fmt.Sprintf("mat: bordered inverse of non-square %d×%d", inv.Rows(), inv.Cols()))
	}
	if len(k) != n {
		panic(fmt.Sprintf("mat: bordered inverse border length %d ≠ %d", len(k), n))
	}
	u := inv.MulVec(k)
	s := kappa - Dot(k, u)
	if s <= 0 || math.IsNaN(s) {
		return nil, fmt.Errorf("%w: bordered Schur complement %g", ErrNotSPD, s)
	}
	out := New(n+1, n+1)
	invS := 1 / s
	for i := 0; i < n; i++ {
		row := out.Row(i)
		irow := inv.Row(i)
		for j := 0; j < n; j++ {
			row[j] = irow[j] + u[i]*u[j]*invS
		}
		row[n] = -u[i] * invS
	}
	last := out.Row(n)
	for j := 0; j < n; j++ {
		last[j] = -u[j] * invS
	}
	last[n] = invS
	return out, nil
}

// SolveSPD factorizes a and solves a x = b in one call.
func SolveSPD(a *Matrix, b []float64) ([]float64, error) {
	var c Cholesky
	if err := c.Factorize(a); err != nil {
		return nil, err
	}
	return c.SolveVec(b), nil
}

// Clone returns an independent copy of the factorization, so that
// speculative Extend calls do not disturb the original.
func (c *Cholesky) Clone() Cholesky {
	out := Cholesky{n: c.n}
	if len(c.data) > 0 {
		out.data = make([]float64, len(c.data))
		copy(out.data, c.data)
	}
	return out
}
