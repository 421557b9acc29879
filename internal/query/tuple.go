// Package query is the relational layer for uncertain data: tuples whose
// attributes may be probability distributions, and Volcano-style operators
// (scan, select, project, cross join, UDF application with TEP filtering)
// sufficient to express the paper's motivating queries Q1 and Q2 (§1).
//
// On top of the Volcano set sit the bounded operators — TopK/OrderBy,
// Window, GroupBy — whose answers are [certain, possible] intervals
// (Bounded) derived from each tuple's confidence envelope, and the fluent
// Plan builder that chains all of them. Every bounded operator also has a
// mergeable half (Partial, GroupPartial, WindowPartials, MergeRankKeys)
// used by the fleet router to scatter a plan across shards and merge the
// per-shard states bit-identically to serial execution; see partial.go.
package query

import (
	"fmt"
	"math"

	"olgapro/internal/core"
	"olgapro/internal/dist"
	"olgapro/internal/ecdf"
)

// Kind tags the payload of a Value.
type Kind int

const (
	// KindNull is the zero Value.
	KindNull Kind = iota
	// KindFloat is a certain float64.
	KindFloat
	// KindInt is a certain int64.
	KindInt
	// KindString is a certain string.
	KindString
	// KindUncertain is an uncertain scalar attribute (a distribution).
	KindUncertain
	// KindResult is a computed output distribution (e.g. a UDF result).
	KindResult
	// KindBounded is a [certain, possible] interval answer — the output of
	// the bounded relational operators (TopK ranks, windowed and grouped
	// aggregates).
	KindBounded
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindFloat:
		return "float"
	case KindInt:
		return "int"
	case KindString:
		return "string"
	case KindUncertain:
		return "uncertain"
	case KindResult:
		return "result"
	case KindBounded:
		return "bounded"
	default:
		return "null"
	}
}

// Value is one attribute value.
type Value struct {
	Kind Kind
	F    float64
	I    int64
	S    string
	D    dist.Dist  // KindUncertain
	R    *ecdf.ECDF // KindResult: the output distribution
	B    Bounded    // KindBounded
	TEP  float64    // KindResult: tuple existence probability estimate
	// Out is the engine output behind a KindResult value (error bounds,
	// engine, cost counters); nil for results built directly from an ECDF.
	// AttachResult populates it — with Out.Envelope stripped, so a retained
	// relation doesn't pin the lower/upper CDFs — letting downstream
	// consumers (the serving layer's response encoder in particular) see
	// the (ε, δ) metadata, not just the distribution.
	Out *core.Output
}

// Float wraps a certain float.
func Float(v float64) Value { return Value{Kind: KindFloat, F: v} }

// Int wraps a certain integer.
func Int(v int64) Value { return Value{Kind: KindInt, I: v} }

// Str wraps a certain string.
func Str(v string) Value { return Value{Kind: KindString, S: v} }

// Uncertain wraps an uncertain scalar attribute.
func Uncertain(d dist.Dist) Value { return Value{Kind: KindUncertain, D: d} }

// Result wraps a computed output distribution.
func Result(r *ecdf.ECDF, tep float64) Value {
	return Value{Kind: KindResult, R: r, TEP: tep}
}

// BoundedVal wraps a [certain, possible] interval answer.
func BoundedVal(b Bounded) Value { return Value{Kind: KindBounded, B: b} }

// String renders the value compactly.
func (v Value) String() string {
	switch v.Kind {
	case KindFloat:
		return fmt.Sprintf("%g", v.F)
	case KindInt:
		return fmt.Sprintf("%d", v.I)
	case KindString:
		return v.S
	case KindUncertain:
		return fmt.Sprintf("~(μ=%.4g σ=%.4g)", v.D.Mean(), sqrtVar(v.D))
	case KindResult:
		if v.R == nil {
			return "result(filtered)"
		}
		return fmt.Sprintf("result(μ=%.4g n=%d)", v.R.Mean(), v.R.Len())
	case KindBounded:
		return v.B.String()
	default:
		return "null"
	}
}

func sqrtVar(d dist.Dist) float64 {
	v := d.Variance()
	if v <= 0 {
		return 0
	}
	return math.Sqrt(v)
}

// Tuple is an ordered list of named attribute values. Tuples are immutable
// by convention: operators derive new tuples with With rather than mutating.
type Tuple struct {
	names []string
	vals  []Value
	index map[string]int
}

// NewTuple builds a tuple from parallel name/value slices.
func NewTuple(names []string, vals []Value) (*Tuple, error) {
	if len(names) != len(vals) {
		return nil, fmt.Errorf("query: %d names but %d values", len(names), len(vals))
	}
	t := &Tuple{
		names: append([]string(nil), names...),
		vals:  append([]Value(nil), vals...),
		index: make(map[string]int, len(names)),
	}
	for i, n := range names {
		if _, dup := t.index[n]; dup {
			return nil, fmt.Errorf("query: duplicate attribute %q", n)
		}
		t.index[n] = i
	}
	return t, nil
}

// MustTuple is NewTuple that panics on error, for literals in tests/examples.
func MustTuple(names []string, vals []Value) *Tuple {
	t, err := NewTuple(names, vals)
	if err != nil {
		panic(err)
	}
	return t
}

// Len returns the number of attributes.
func (t *Tuple) Len() int { return len(t.vals) }

// Names returns the attribute names in order (shared; do not mutate).
func (t *Tuple) Names() []string { return t.names }

// Get returns the value of the named attribute.
func (t *Tuple) Get(name string) (Value, error) {
	i, ok := t.index[name]
	if !ok {
		return Value{}, fmt.Errorf("query: no attribute %q", name)
	}
	return t.vals[i], nil
}

// MustGet is Get that panics on a missing attribute.
func (t *Tuple) MustGet(name string) Value {
	v, err := t.Get(name)
	if err != nil {
		panic(err)
	}
	return v
}

// With returns a new tuple extended (or overridden) with the named value.
func (t *Tuple) With(name string, v Value) *Tuple {
	if i, ok := t.index[name]; ok {
		out := &Tuple{names: t.names, vals: append([]Value(nil), t.vals...), index: t.index}
		out.vals[i] = v
		return out
	}
	out := &Tuple{
		names: append(append([]string(nil), t.names...), name),
		vals:  append(append([]Value(nil), t.vals...), v),
		index: make(map[string]int, len(t.names)+1),
	}
	for i, n := range out.names {
		out.index[n] = i
	}
	return out
}

// Set overwrites the value at position i in place. Tuples are immutable by
// convention, so Set is only for a scratch tuple its caller owns outright:
// a row view that one worker refills for every item and hands to no one.
func (t *Tuple) Set(i int, v Value) { t.vals[i] = v }

// Concat merges two tuples, prefixing attribute names to avoid collisions
// (used by joins: "g1.redshift", "g2.redshift").
func Concat(left *Tuple, leftPrefix string, right *Tuple, rightPrefix string) (*Tuple, error) {
	names := make([]string, 0, left.Len()+right.Len())
	vals := make([]Value, 0, left.Len()+right.Len())
	for i, n := range left.names {
		names = append(names, leftPrefix+n)
		vals = append(vals, left.vals[i])
	}
	for i, n := range right.names {
		names = append(names, rightPrefix+n)
		vals = append(vals, right.vals[i])
	}
	return NewTuple(names, vals)
}

// String renders the tuple.
func (t *Tuple) String() string {
	s := "{"
	for i, n := range t.names {
		if i > 0 {
			s += ", "
		}
		s += n + "=" + t.vals[i].String()
	}
	return s + "}"
}
