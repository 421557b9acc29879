package query

import (
	"fmt"
	"math"
	"sort"
)

// AggKind selects an aggregate function.
type AggKind int

const (
	// AggCount counts tuples.
	AggCount AggKind = iota
	// AggSum sums the statistic of the named attribute.
	AggSum
	// AggAvg averages the statistic of the named attribute.
	AggAvg
	// AggMin takes the minimum of the statistic of the named attribute.
	AggMin
	// AggMax takes the maximum of the statistic of the named attribute.
	AggMax
)

// String names the aggregate ("count", "sum", ...).
func (k AggKind) String() string {
	switch k {
	case AggCount:
		return "count"
	case AggSum:
		return "sum"
	case AggAvg:
		return "avg"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	default:
		return fmt.Sprintf("agg(%d)", int(k))
	}
}

// Agg is one aggregate column of a Window or GroupBy operator: Kind applied
// to the Stat of attribute Attr, emitted as attribute As. AggCount ignores
// Attr/Stat. As defaults to "count" for AggCount and "kind_attr" otherwise.
type Agg struct {
	Kind AggKind
	Attr string
	Stat Stat
	As   string
}

// Count is the tuple-count aggregate.
func Count() Agg { return Agg{Kind: AggCount} }

// Sum aggregates the mean of attr.
func Sum(attr string) Agg { return Agg{Kind: AggSum, Attr: attr} }

// Avg aggregates the mean of attr.
func Avg(attr string) Agg { return Agg{Kind: AggAvg, Attr: attr} }

// Min aggregates the mean of attr.
func Min(attr string) Agg { return Agg{Kind: AggMin, Attr: attr} }

// Max aggregates the mean of attr.
func Max(attr string) Agg { return Agg{Kind: AggMax, Attr: attr} }

// WithStat returns the aggregate with its statistic replaced.
func (a Agg) WithStat(s Stat) Agg { a.Stat = s; return a }

// Named returns the aggregate with its output attribute name replaced.
func (a Agg) Named(as string) Agg { a.As = as; return a }

// name resolves the output attribute name.
func (a Agg) name() string {
	if a.As != "" {
		return a.As
	}
	if a.Kind == AggCount {
		return "count"
	}
	return a.Kind.String() + "_" + a.Attr
}

func (a Agg) validate() error {
	switch a.Kind {
	case AggCount:
		return nil
	case AggSum, AggAvg, AggMin, AggMax:
		if a.Attr == "" {
			return fmt.Errorf("aggregate %s needs an attribute", a.Kind)
		}
		return a.Stat.validate()
	default:
		return fmt.Errorf("unknown aggregate kind %d", int(a.Kind))
	}
}

func finish(lo, hi float64) Bounded {
	return Bounded{Lo: lo, Hi: hi, Certain: lo == hi}
}

// sumBounds bounds the sum over every possible world of items.
func sumBounds(items []PartialItem) Bounded {
	var lo, hi float64
	for _, it := range items {
		if it.Sure {
			lo += it.Lo
			hi += it.Hi
		} else {
			// A maybe-tuple contributes only when it helps the extreme.
			lo += math.Min(it.Lo, 0)
			hi += math.Max(it.Hi, 0)
		}
	}
	return finish(lo, hi)
}

// avgBounds bounds the average over nonempty realized sets exactly, by the
// greedy exchange argument: to minimize the average, every included item
// takes its lowest value, every sure item must be included, and a maybe
// item is worth including iff its low end is below the running average —
// scanning maybe-lows in ascending order reaches the global minimum. The
// upper end is symmetric.
func avgBounds(items []PartialItem) Bounded {
	if len(items) == 0 {
		return Bounded{Lo: math.NaN(), Hi: math.NaN()}
	}
	lo := minAvg(items, false)
	hi := -minAvg(items, true)
	return finish(lo, hi)
}

// minAvg returns the minimum achievable average of included item lows; the
// maximum side routes through here by negation (neg reads each item as
// [−Hi, −Lo]).
func minAvg(items []PartialItem, neg bool) float64 {
	var sum float64
	var n int
	var maybes []float64
	for _, it := range items {
		v := it.Lo
		if neg {
			v = -it.Hi
		}
		if it.Sure {
			sum += v
			n++
		} else {
			maybes = append(maybes, v)
		}
	}
	sort.Float64s(maybes)
	if n == 0 {
		// The realized set must be nonempty: seed with the smallest maybe.
		if len(maybes) == 0 {
			return math.NaN()
		}
		sum, n = maybes[0], 1
		maybes = maybes[1:]
	}
	for _, v := range maybes {
		if v*float64(n) < sum {
			sum += v
			n++
		} else {
			break
		}
	}
	return sum / float64(n)
}
