package query

// This file is the bounded-aggregate fold: a mergeable partial-state
// representation for every aggregate kind, plus the group- and
// window-level wrappers. The serial GroupBy and Window operators fold
// through it as the one-partition case; the fleet router scatters a plan
// across shards, folds each shard's tuples the same way and merges.
//
// # Bit-identity contract
//
// The merged bound must equal — bit for bit — the bound one Partial
// observing the union relation in ordinal order produces. Two mechanisms
// deliver that:
//
//   - Order-free kinds (count, min, max) keep only scalar state folded with
//     integer addition and math.Min/math.Max, which are associative and
//     exact in floating point, so any merge order yields the same bits.
//   - Order-sensitive kinds (sum, avg) keep the full item list tagged with
//     each tuple's global ordinal in the union relation; Bound folds the
//     items in ascending ordinal through sumBounds/avgBounds, so the merge
//     order cannot change the result.
//
// Ordinals are the stream positions the union relation would assign, so a
// shard holding an arbitrary subset of the relation still contributes items
// that interleave correctly with every other shard's.

import (
	"fmt"
	"math"
	"sort"
)

// PartialItem is one tuple's contribution to a bounded aggregate: the
// [lo, hi] interval of its statistic, whether the tuple certainly exists (a
// TEP-filtered tuple may be absent from some possible worlds), and the
// tuple's global ordinal in the union relation.
type PartialItem struct {
	Ord    int64
	Lo, Hi float64
	Sure   bool
}

// PartialItemOf extracts one tuple's contribution to agg, stamped with the
// tuple's global ordinal.
func PartialItemOf(t *Tuple, agg Agg, ord int64) (PartialItem, error) {
	if agg.Kind == AggCount {
		// Count needs only existence: a tuple is a maybe-tuple when ANY of
		// its result attributes may not exist.
		sure := true
		for _, n := range t.Names() {
			if !existenceCertain(t.MustGet(n)) {
				sure = false
				break
			}
		}
		return PartialItem{Ord: ord, Lo: 1, Hi: 1, Sure: sure}, nil
	}
	v, err := t.Get(agg.Attr)
	if err != nil {
		return PartialItem{}, err
	}
	b, err := IntervalOf(v, agg.Stat)
	if err != nil {
		return PartialItem{}, fmt.Errorf("attribute %q: %w", agg.Attr, err)
	}
	return PartialItem{Ord: ord, Lo: b.Lo, Hi: b.Hi, Sure: existenceCertain(v)}, nil
}

// Partial is the mergeable state of one bounded aggregate over a subset of
// a relation. Observe items in ascending ordinal order, Merge partials from
// disjoint subsets in any order, then Bound — the result is bit-identical
// to one Partial observing the union. The zero value is not usable; build
// with NewPartial.
type Partial struct {
	Kind AggKind
	// N and Sure count observed items and certainly-existing items; they
	// fully determine the count aggregate and select the min/max cap.
	N, Sure int
	// Scalar envelope state for min/max, oriented so smaller is the
	// reachable extreme (AggMax observes negated intervals): Lo is the
	// smallest reachable value, SureCap the tightest cap from a certainly
	// existing member, AllCap the largest single-member world.
	Lo, SureCap, AllCap float64
	// Items is the full item list for the order-sensitive kinds (sum, avg),
	// ascending by Ord; empty for count/min/max.
	Items []PartialItem
}

// NewPartial returns an empty partial for the kind. The scalar fields start
// at the fold identities (+Inf/+Inf/−Inf), which are neutral under Merge.
func NewPartial(kind AggKind) *Partial {
	p := &Partial{Kind: kind}
	p.reset()
	return p
}

// reset empties the partial for reuse, keeping the item list's storage.
func (p *Partial) reset() {
	*p = Partial{Kind: p.Kind, Lo: math.Inf(1), SureCap: math.Inf(1), AllCap: math.Inf(-1), Items: p.Items[:0]}
}

// Observe folds one item into the partial. Items must arrive in ascending
// Ord order (the natural stream order on a shard).
func (p *Partial) Observe(it PartialItem) {
	p.N++
	if it.Sure {
		p.Sure++
	}
	switch p.Kind {
	case AggCount:
		// Existence counters only.
	case AggMin, AggMax:
		lo, hi := it.Lo, it.Hi
		if p.Kind == AggMax {
			lo, hi = -it.Hi, -it.Lo
		}
		p.Lo = math.Min(p.Lo, lo)
		p.AllCap = math.Max(p.AllCap, hi)
		if it.Sure {
			p.SureCap = math.Min(p.SureCap, hi)
		}
	default: // AggSum, AggAvg: order-sensitive, keep the items.
		p.Items = append(p.Items, it)
	}
}

// Merge folds q (a partial over a disjoint subset) into p. Merge order does
// not matter; the ordinal tags restore the serial fold order at Bound time.
func (p *Partial) Merge(q *Partial) error {
	if p.Kind != q.Kind {
		return fmt.Errorf("query: cannot merge %s partial into %s partial", q.Kind, p.Kind)
	}
	p.N += q.N
	p.Sure += q.Sure
	p.Lo = math.Min(p.Lo, q.Lo)
	p.SureCap = math.Min(p.SureCap, q.SureCap)
	p.AllCap = math.Max(p.AllCap, q.AllCap)
	p.Items = mergeItems(p.Items, q.Items)
	return nil
}

// mergeItems merges two ordinal-ascending item lists.
func mergeItems(a, b []PartialItem) []PartialItem {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return append([]PartialItem(nil), b...)
	}
	out := make([]PartialItem, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i].Ord <= b[j].Ord {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// Bound finishes the partial into the [certain, possible] interval of the
// aggregate over every possible world of the observed tuples: each item's
// value ranges over its interval, and items that are not sure may be
// absent. Min/max/avg are conditional on the realized set being nonempty
// (worlds where every maybe-tuple is absent and no sure tuple exists are
// skipped); over zero items they return NaN bounds, which callers should
// treat as "no answer".
//
// The minimum's lower end is the smallest reachable value; its upper end
// is the tightest certain cap — a sure member's Hi when one exists, else
// the largest single-member world. The maximum is the minimum of the
// negated intervals.
func (p *Partial) Bound() Bounded {
	switch p.Kind {
	case AggCount:
		return finish(float64(p.Sure), float64(p.N))
	case AggMin, AggMax:
		lo, hi := p.Lo, p.AllCap
		if p.Sure > 0 {
			hi = p.SureCap
		}
		if p.N == 0 {
			lo, hi = math.NaN(), math.NaN()
		}
		if p.Kind == AggMax {
			return finish(-hi, -lo)
		}
		return finish(lo, hi)
	case AggSum:
		return sumBounds(p.Items)
	case AggAvg:
		return avgBounds(p.Items)
	default:
		return Bounded{Lo: math.NaN(), Hi: math.NaN()}
	}
}

// GroupPartial is the mergeable state of one group of a distributed
// group-by: the group's collision-free key encoding, its key attribute
// values, the smallest global ordinal among its tuples (which orders groups
// exactly as the serial operator's first-seen order does), and one Partial
// per aggregate column, in spec order.
type GroupPartial struct {
	Key  string
	Vals []Value
	Ord  int64
	Aggs []*Partial
}

// GroupPartialsOf partitions a shard's surviving tuples into per-group
// partial aggregates. tuples must be in stream order and ords must carry
// their ascending global ordinals (len(ords) == len(tuples)). Groups are
// returned in first-seen order.
func GroupPartialsOf(tuples []*Tuple, ords []int64, spec GroupBySpec) ([]*GroupPartial, error) {
	f, err := NewGroupFold(spec)
	if err != nil {
		return nil, err
	}
	if len(ords) != len(tuples) {
		return nil, fmt.Errorf("query: group-by: %d ordinals for %d tuples", len(ords), len(tuples))
	}
	for i, t := range tuples {
		if err := f.observe(t, ords[i]); err != nil {
			return nil, fmt.Errorf("query: group-by: %w", err)
		}
	}
	return f.Groups(), nil
}

// GroupFold partitions tuples by their certain key attributes into one
// GroupPartial per group, in first-seen order: the fold behind the serial
// GroupBy, GroupPartialsOf and a serving shard's partials. A caller whose
// tuples do not outlive their evaluation (a worker refilling one row view
// per item) splits a tuple's fold in two: KeyAndItems and KeyVals on the
// tuple, in the worker, and Fold on what they returned, in ordinal order.
type GroupFold struct {
	spec   GroupBySpec
	groups map[string]*GroupPartial
	out    []*GroupPartial
	key    []byte // the current tuple's key encoding
}

// NewGroupFold returns an empty fold under spec.
func NewGroupFold(spec GroupBySpec) (*GroupFold, error) {
	if err := spec.validate(); err != nil {
		return nil, fmt.Errorf("query: group-by: %w", err)
	}
	return newGroupFold(spec), nil
}

func newGroupFold(spec GroupBySpec) *GroupFold {
	return &GroupFold{spec: spec, groups: map[string]*GroupPartial{}}
}

// Groups returns the groups folded so far, in first-seen order.
func (f *GroupFold) Groups() []*GroupPartial { return f.out }

// observe folds tuple t, at global ordinal ord, into its group. Its items
// stay on the stack for up to eight aggregates, and only a group's first
// tuple reads its key values.
func (f *GroupFold) observe(t *Tuple, ord int64) error {
	var itemBuf [8]PartialItem
	key, items, err := f.spec.KeyAndItems(t, ord, f.key[:0], itemBuf[:0])
	f.key = key
	if err != nil {
		return err
	}
	if vals := f.Fold(key, items, ord); vals != nil {
		f.spec.KeyVals(t, vals[:0])
	}
	return nil
}

// KeyAndItems is tuple t's part in the group-by at global ordinal ord: it
// appends t's collision-free group key encoding to key and its item for
// each aggregate, in spec order, to items.
func (s GroupBySpec) KeyAndItems(t *Tuple, ord int64, key []byte, items []PartialItem) ([]byte, []PartialItem, error) {
	start := len(key)
	var err error
	if key, err = appendGroupKey(key, t, s.Keys); err != nil {
		return key, items, err
	}
	for _, a := range s.Aggs {
		it, err := PartialItemOf(t, a, ord)
		if err != nil {
			return key, items, fmt.Errorf("group %s: %w", key[start:], err)
		}
		items = append(items, it)
	}
	return key, items, nil
}

// KeyVals appends t's key attribute values, in spec order, to vals.
func (s GroupBySpec) KeyVals(t *Tuple, vals []Value) []Value {
	for _, k := range s.Keys {
		vals = append(vals, t.MustGet(k))
	}
	return vals
}

// Fold folds one tuple's key encoding and items (see KeyAndItems) at
// global ordinal ord into its group; tuples arrive in ascending ordinal
// order. When the tuple opens its group, Fold returns the group's key
// values for the caller to fill (see KeyVals), and nil otherwise. Only a
// group's first tuple allocates its key.
func (f *GroupFold) Fold(key []byte, items []PartialItem, ord int64) []Value {
	gp, ok := f.groups[string(key)]
	if !ok {
		gp = &GroupPartial{
			Key:  string(key),
			Vals: make([]Value, len(f.spec.Keys)),
			Ord:  ord,
			Aggs: make([]*Partial, len(f.spec.Aggs)),
		}
		for j, a := range f.spec.Aggs {
			gp.Aggs[j] = NewPartial(a.Kind)
		}
		f.groups[gp.Key] = gp
		f.out = append(f.out, gp)
	}
	for j, it := range items {
		gp.Aggs[j].Observe(it)
	}
	if ok {
		return nil
	}
	return gp.Vals
}

// MergeGroupPartials merges per-shard group lists into one list ordered by
// first-seen global ordinal — the order the serial GroupBy over the union
// relation emits. The inputs are not mutated.
func MergeGroupPartials(lists ...[]*GroupPartial) ([]*GroupPartial, error) {
	groups := map[string]*GroupPartial{}
	var out []*GroupPartial
	for _, list := range lists {
		for _, gp := range list {
			have, ok := groups[gp.Key]
			if !ok {
				cp := &GroupPartial{Key: gp.Key, Vals: gp.Vals, Ord: gp.Ord}
				for _, a := range gp.Aggs {
					na := NewPartial(a.Kind)
					if err := na.Merge(a); err != nil {
						return nil, err
					}
					cp.Aggs = append(cp.Aggs, na)
				}
				groups[gp.Key] = cp
				out = append(out, cp)
				continue
			}
			if len(gp.Aggs) != len(have.Aggs) {
				return nil, fmt.Errorf("query: group %s: %d aggregates vs %d", gp.Key, len(gp.Aggs), len(have.Aggs))
			}
			if gp.Ord < have.Ord {
				have.Ord = gp.Ord
				have.Vals = gp.Vals
			}
			for j, a := range gp.Aggs {
				if err := have.Aggs[j].Merge(a); err != nil {
					return nil, err
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Ord < out[j].Ord })
	return out, nil
}

// FinishGroupPartials materializes merged groups into the same answer
// tuples the serial GroupBy emits: key attributes first, then one Bounded
// attribute per aggregate.
func FinishGroupPartials(spec GroupBySpec, groups []*GroupPartial) ([]*Tuple, error) {
	if err := spec.validate(); err != nil {
		return nil, fmt.Errorf("query: group-by: %w", err)
	}
	out := make([]*Tuple, 0, len(groups))
	for _, gp := range groups {
		if len(gp.Aggs) != len(spec.Aggs) {
			return nil, fmt.Errorf("query: group %s: %d aggregates, spec wants %d", gp.Key, len(gp.Aggs), len(spec.Aggs))
		}
		names := make([]string, 0, len(spec.Keys)+len(spec.Aggs))
		vals := make([]Value, 0, len(spec.Keys)+len(spec.Aggs))
		names = append(names, spec.Keys...)
		vals = append(vals, gp.Vals...)
		for j, a := range spec.Aggs {
			names = append(names, a.name())
			vals = append(vals, BoundedVal(gp.Aggs[j].Bound()))
		}
		t, err := NewTuple(names, vals)
		if err != nil {
			return nil, fmt.Errorf("query: group %s: %w", gp.Key, err)
		}
		out = append(out, t)
	}
	return out, nil
}

// WindowPartials materializes the sliding-window answer tuples from
// per-tuple items. items[a] holds every surviving tuple's contribution to
// spec.Aggs[a], each list in ascending global-ordinal order and all lists
// the same length n; windows are positional over those n survivors exactly
// as the serial Window operator slides over its post-filter stream.
func WindowPartials(spec WindowSpec, items [][]PartialItem) ([]*Tuple, error) {
	if err := spec.validate(); err != nil {
		return nil, fmt.Errorf("query: window: %w", err)
	}
	if len(items) != len(spec.Aggs) {
		return nil, fmt.Errorf("query: window: %d item lists for %d aggregates", len(items), len(spec.Aggs))
	}
	n := -1
	for a := range items {
		if n >= 0 && len(items[a]) != n {
			return nil, fmt.Errorf("query: window: item lists disagree on length (%d vs %d)", len(items[a]), n)
		}
		n = len(items[a])
	}
	parts := spec.partials()
	var out []*Tuple
	for start := 0; start+spec.Size <= n; start += spec.step() {
		t, err := spec.tuple(int64(start), parts, func(a, i int) (PartialItem, error) {
			return items[a][start+i], nil
		})
		if err != nil {
			return nil, fmt.Errorf("query: %w", err)
		}
		out = append(out, t)
	}
	return out, nil
}
