package query

import (
	"fmt"
	"io"
	"math"
	"strconv"
)

// GroupBySpec configures a grouped aggregation.
type GroupBySpec struct {
	// Keys name the grouping attributes; they must hold certain values
	// (int, float, or string) — grouping on uncertain keys is out of scope.
	Keys []string
	// Aggs are the aggregate columns computed per group.
	Aggs []Agg
}

func (s GroupBySpec) validate() error {
	if len(s.Keys) == 0 {
		return fmt.Errorf("group-by needs at least one key")
	}
	if len(s.Aggs) == 0 {
		return fmt.Errorf("group-by needs at least one aggregate")
	}
	seen := map[string]bool{}
	for _, k := range s.Keys {
		if seen[k] {
			return fmt.Errorf("duplicate group-by key %q", k)
		}
		seen[k] = true
	}
	for _, a := range s.Aggs {
		if err := a.validate(); err != nil {
			return err
		}
		if seen[a.name()] {
			return fmt.Errorf("duplicate group-by output attribute %q", a.name())
		}
		seen[a.name()] = true
	}
	return nil
}

// GroupBy is the grouped bounded-aggregate operator: input tuples are
// partitioned by their certain key attributes, and each group emits one
// fresh tuple holding the keys plus one Bounded attribute per aggregate —
// the [certain, possible] interval of the aggregate over every possible
// world of the group's tuples (see Partial.Bound). A TEP-filtered maybe-tuple
// is a maybe-member of its group, so counts get [certain, possible] bounds
// and value aggregates are conditional on the group being realized
// nonempty. GroupBy is blocking; output order is deterministic — ascending
// by the groups' first-seen input ordinal — and the operator follows the
// package error convention.
type GroupBy struct {
	In   Iterator
	Spec GroupBySpec

	state   opErr
	started bool
	out     []*Tuple
	pos     int
}

// NewGroupBy builds the operator.
func NewGroupBy(in Iterator, spec GroupBySpec) *GroupBy {
	return &GroupBy{In: in, Spec: spec}
}

// Next returns the next group's aggregate tuple.
func (g *GroupBy) Next() (*Tuple, error) {
	if err := g.state.sticky(); err != nil {
		return nil, err
	}
	if !g.started {
		g.started = true
		if err := g.build(); err != nil {
			return nil, err
		}
	}
	if g.pos >= len(g.out) {
		return nil, g.state.upstream(io.EOF)
	}
	t := g.out[g.pos]
	g.pos++
	return t, nil
}

// build drains the input into the per-group fold GroupPartialsOf runs,
// each tuple at its input position as its ordinal, and finishes the groups.
func (g *GroupBy) build() error {
	if err := g.Spec.validate(); err != nil {
		return g.state.fail("group-by", err)
	}
	f := newGroupFold(g.Spec)
	for {
		t, err := g.In.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return g.state.upstream(err)
		}
		if err := f.observe(t, g.state.seq); err != nil {
			return g.state.fail("group-by", err)
		}
		g.state.seq++
	}
	out, err := FinishGroupPartials(g.Spec, f.out)
	if err != nil {
		return g.state.fail("group-by", err)
	}
	g.out = out
	return nil
}

// appendGroupKey appends the collision-free encoding of t's certain key
// attributes to dst.
func appendGroupKey(dst []byte, t *Tuple, keys []string) ([]byte, error) {
	for _, name := range keys {
		v, err := t.Get(name)
		if err != nil {
			return dst, err
		}
		switch v.Kind {
		case KindInt:
			dst = append(dst, 'i')
			dst = strconv.AppendInt(dst, v.I, 10)
		case KindFloat:
			dst = append(dst, 'f')
			dst = strconv.AppendUint(dst, math.Float64bits(v.F), 16)
		case KindString:
			dst = append(dst, 's')
			dst = strconv.AppendInt(dst, int64(len(v.S)), 10)
			dst = append(dst, ':')
			dst = append(dst, v.S...)
		default:
			return dst, fmt.Errorf("key %q has kind %s, want a certain value", name, v.Kind)
		}
		dst = append(dst, '|')
	}
	return dst, nil
}
