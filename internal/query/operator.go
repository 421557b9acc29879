package query

import (
	"fmt"
	"io"
	"math/rand"

	"olgapro/internal/core"
	"olgapro/internal/dist"
	"olgapro/internal/ecdf"
	"olgapro/internal/mc"
)

// Iterator is the Volcano-model pull interface. Next returns io.EOF after
// the last tuple.
//
// Error convention (shared with internal/exec): the first error wins and is
// sticky — once Next returns a non-nil error, every subsequent call returns
// that same error without pulling more input. io.EOF passes through
// unwrapped. An error raised by an operator's own work is wrapped exactly
// once, with the operator name and the 0-based ordinal of the offending
// input tuple ("query: apply \"f\": tuple #17: ..."); errors arriving from
// upstream propagate unmodified, since they were wrapped at their source.
type Iterator interface {
	Next() (*Tuple, error)
}

// Drain pulls every tuple from it until io.EOF. On error the partial
// prefix is discarded: Drain returns (nil, err) with the first error in
// stream order, already wrapped once at its source per the Iterator error
// convention — Drain itself adds no wrapping.
func Drain(it Iterator) ([]*Tuple, error) {
	var out []*Tuple
	for {
		t, err := it.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
}

// opErr implements the package error convention for one operator: the first
// error (io.EOF included) is retained and every later Next returns it
// unchanged.
type opErr struct {
	seq int64 // input tuples consumed so far; the ordinal used in wrapping
	err error
}

// sticky returns the retained error, or nil when iteration may continue.
func (o *opErr) sticky() error { return o.err }

// upstream retains an error from In.Next (or io.EOF) unmodified.
func (o *opErr) upstream(err error) error {
	o.err = err
	return o.err
}

// fail wraps the operator's own failure on the current input tuple.
func (o *opErr) fail(op string, err error) error {
	o.err = fmt.Errorf("query: %s: tuple #%d: %w", op, o.seq, err)
	return o.err
}

// --- Scan ---

// Scan iterates over an in-memory relation.
type Scan struct {
	tuples []*Tuple
	pos    int
}

// NewScan returns a scan over tuples.
func NewScan(tuples []*Tuple) *Scan { return &Scan{tuples: tuples} }

// Next returns the next tuple or io.EOF.
func (s *Scan) Next() (*Tuple, error) {
	if s.pos >= len(s.tuples) {
		return nil, io.EOF
	}
	t := s.tuples[s.pos]
	s.pos++
	return t, nil
}

// --- Select ---

// Select filters tuples by a predicate on certain attributes.
type Select struct {
	In   Iterator
	Pred func(*Tuple) (bool, error)

	state opErr
}

// Next returns the next passing tuple.
func (s *Select) Next() (*Tuple, error) {
	if err := s.state.sticky(); err != nil {
		return nil, err
	}
	for {
		t, err := s.In.Next()
		if err != nil {
			return nil, s.state.upstream(err)
		}
		ok, err := s.Pred(t)
		if err != nil {
			return nil, s.state.fail("select", err)
		}
		s.state.seq++
		if ok {
			return t, nil
		}
	}
}

// --- Project ---

// Project keeps only the named attributes, in order.
type Project struct {
	In    Iterator
	Names []string

	state opErr
}

// Next returns the projected next tuple.
func (p *Project) Next() (*Tuple, error) {
	if err := p.state.sticky(); err != nil {
		return nil, err
	}
	t, err := p.In.Next()
	if err != nil {
		return nil, p.state.upstream(err)
	}
	vals := make([]Value, len(p.Names))
	for i, n := range p.Names {
		v, err := t.Get(n)
		if err != nil {
			return nil, p.state.fail("project", err)
		}
		vals[i] = v
	}
	out, err := NewTuple(p.Names, vals)
	if err != nil {
		return nil, p.state.fail("project", err)
	}
	p.state.seq++
	return out, nil
}

// --- CrossJoin ---

// CrossJoin produces the cross product of two in-memory relations with
// prefixed attribute names, as needed by the self-join of query Q2.
type CrossJoin struct {
	left, right           []*Tuple
	leftPrefix, rightPref string
	i, j                  int
	skipSelfPairs         bool

	state opErr
}

// NewCrossJoin builds a cross join; when skipSelfPairs is true, pairs (i, j)
// with j ≤ i are omitted, giving unordered distinct pairs — the usual form
// of the Q2 self-join.
func NewCrossJoin(left []*Tuple, leftPrefix string, right []*Tuple, rightPrefix string, skipSelfPairs bool) *CrossJoin {
	return &CrossJoin{
		left: left, right: right,
		leftPrefix: leftPrefix, rightPref: rightPrefix,
		skipSelfPairs: skipSelfPairs,
	}
}

// Next returns the next joined tuple.
func (c *CrossJoin) Next() (*Tuple, error) {
	if err := c.state.sticky(); err != nil {
		return nil, err
	}
	for {
		if c.i >= len(c.left) {
			return nil, c.state.upstream(io.EOF)
		}
		if c.j >= len(c.right) {
			c.i++
			c.j = 0
			continue
		}
		i, j := c.i, c.j
		c.j++
		if c.skipSelfPairs && j <= i {
			continue
		}
		t, err := Concat(c.left[i], c.leftPrefix, c.right[j], c.rightPref)
		if err != nil {
			return nil, c.state.fail("cross-join", fmt.Errorf("pair (%d,%d): %w", i, j, err))
		}
		c.state.seq++
		return t, nil
	}
}

// --- UDF application ---

// ApplyUDF evaluates a UDF over the named input attributes of each tuple and
// appends the output distribution as a new attribute. Tuples the engine
// filters (predicate TEP below threshold) are dropped from the stream —
// this is the WHERE clause of query Q2. For surviving tuples under a
// predicate, the appended distribution is *truncated* to the predicate
// interval with the tuple existence probability attached, matching the
// paper's semantics ("truncates the distribution ... to the region [l, u],
// and hence yields a tuple existence probability").
type ApplyUDF struct {
	In Iterator
	// Inputs names the attributes forming the UDF input vector, in order.
	// Uncertain attributes contribute their distribution; certain numeric
	// attributes contribute a Constant.
	Inputs []string
	// Out is the name of the appended result attribute.
	Out string
	// Engine evaluates the UDF.
	Engine Engine
	// Rng drives sampling when SeedPerTuple is false.
	Rng *rand.Rand
	// SeedPerTuple switches sampling to the parallel executor's seeding
	// discipline: each input tuple is evaluated with the operator's own
	// rand.Rand reseeded by TupleSeed(Seed, ordinal), so a serial plan
	// reproduces exec.Pool output bit-for-bit at any worker count.
	SeedPerTuple bool
	// Seed is the base of the per-tuple seeds when SeedPerTuple is set.
	Seed int64
	// Predicate, when non-nil, truncates surviving result distributions to
	// [A, B]. It should match the predicate configured on the engine (the
	// engine's own predicate drives the drop decision; this one drives the
	// truncation of kept tuples).
	Predicate *mc.Predicate
	// KeepEnvelope retains Out.Envelope on attached results, which the
	// bounded operators (TopK/Window/GroupBy) require to derive intervals.
	KeepEnvelope bool

	// Dropped counts tuples removed by filtering.
	Dropped int

	state opErr
	// tupleRng is the generator reseeded per tuple under SeedPerTuple,
	// built on first use.
	tupleRng *rand.Rand
}

// Next returns the next surviving tuple with the UDF result attached.
func (a *ApplyUDF) Next() (*Tuple, error) {
	if err := a.state.sticky(); err != nil {
		return nil, err
	}
	for {
		t, err := a.In.Next()
		if err != nil {
			return nil, a.state.upstream(err)
		}
		input, err := InputVectorFor(t, a.Inputs)
		if err != nil {
			return nil, a.state.fail(fmt.Sprintf("apply %q", a.Out), err)
		}
		rng := a.Rng
		if a.SeedPerTuple {
			if a.tupleRng == nil {
				a.tupleRng = NewTupleRand()
			}
			rng = a.tupleRng
			rng.Seed(TupleSeed(a.Seed, a.state.seq))
		}
		out, err := a.Engine.EvalInput(input, rng)
		if err != nil {
			return nil, a.state.fail(fmt.Sprintf("apply %q", a.Out), err)
		}
		a.state.seq++
		result := AttachResult(t, out, a.Out, a.Predicate, a.KeepEnvelope)
		if result == nil {
			a.Dropped++
			continue
		}
		return result, nil
	}
}

// InputVectorFor assembles the joint UDF input distribution from the named
// attributes of t: uncertain attributes contribute their distribution,
// certain numeric attributes a Constant. It is shared by ApplyUDF and the
// parallel executor (internal/exec) so both apply identical semantics.
func InputVectorFor(t *Tuple, inputs []string) (dist.Vector, error) {
	comps := make([]dist.Dist, len(inputs))
	for i, name := range inputs {
		v, err := t.Get(name)
		if err != nil {
			return nil, err
		}
		switch v.Kind {
		case KindUncertain:
			comps[i] = v.D
		case KindFloat:
			comps[i] = dist.Constant{V: v.F}
		case KindInt:
			comps[i] = dist.Constant{V: float64(v.I)}
		default:
			return nil, fmt.Errorf("attribute %q has kind %s, want numeric or uncertain", name, v.Kind)
		}
	}
	return dist.NewIndependent(comps...), nil
}

// AttachResult applies the paper's predicate semantics to one engine output:
// a filtered tuple yields nil (dropped); otherwise the surviving result
// distribution is truncated to the predicate interval (when pred is non-nil)
// with the realized mass as its tuple existence probability, and the tuple
// extended with the result under name is returned. A post-truncation mass
// below θ also drops the tuple, for consistency with the engine's own
// filtering. Shared by ApplyUDF and the parallel executor so serial and
// parallel plans agree tuple-for-tuple.
//
// keepEnvelope retains Out.Envelope on the attached value. By default the
// envelope is stripped — a materialized relation of result tuples would
// otherwise retain ~3× the distribution memory for fields only the bound
// computation needed — but the bounded operators (TopK/Window/GroupBy)
// derive their intervals from it, so plans feeding those must keep it.
// Under a predicate the retained envelope stays the untruncated one: the
// enveloped statistic bounds it yields are computed before conditioning,
// which keeps them sound for every function in the envelope. The truncated
// distribution is a view of out's support (see ResultValue), which the
// attached metadata holds anyway, so out's support must not change after.
func AttachResult(t *Tuple, out *core.Output, name string, pred *mc.Predicate, keepEnvelope bool) *Tuple {
	v, ok := ResultValue(out, pred, nil)
	if !ok {
		return nil
	}
	meta := *out
	if !keepEnvelope {
		meta.Envelope = nil
	}
	v.Out = &meta
	return t.With(name, v)
}

// ResultValue is the result value AttachResult attaches, and whether the
// tuple survives, without any copy: the value's Out is out itself, envelope
// included, and under a predicate its distribution is the part of out's
// support inside [A, B], viewed through trunc (a new ECDF when trunc is
// nil). It is valid as long as out is, so a worker holding a borrowed
// output (Borrowed) consumes it before the engine's next evaluation.
func ResultValue(out *core.Output, pred *mc.Predicate, trunc *ecdf.ECDF) (Value, bool) {
	if out.Filtered {
		return Value{}, false
	}
	d := out.Dist
	tep := out.TEPUpper
	if pred != nil && d != nil {
		if trunc == nil {
			trunc = new(ecdf.ECDF)
		}
		var mass float64
		if d, mass = d.TruncateInto(trunc, pred.A, pred.B); mass < pred.Theta {
			return Value{}, false
		}
		tep = mass
	}
	v := Result(d, tep)
	v.Out = out
	return v, true
}

// --- Catalog helpers ---

// GalaxyTuple converts an SDSS-style galaxy into a tuple with uncertain
// position and redshift attributes, the representation of §1:
// (objID, pos_p, redshift_p, ...).
func GalaxyTuple(objID int64, ra, dec, raErr, decErr, z, zErr float64) *Tuple {
	return MustTuple(
		[]string{"objID", "ra", "dec", "redshift"},
		[]Value{
			Int(objID),
			Uncertain(dist.Normal{Mu: ra, Sigma: raErr}),
			Uncertain(dist.Normal{Mu: dec, Sigma: decErr}),
			Uncertain(dist.Normal{Mu: z, Sigma: zErr}),
		},
	)
}
