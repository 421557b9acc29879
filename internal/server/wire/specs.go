package wire

import (
	"fmt"

	"olgapro/internal/core"
	"olgapro/internal/mc"
	"olgapro/internal/query"
)

// PredicateSpec is the wire form of the §5.5 TEP-filter predicate
// f(X) ∈ [A, B] with existence threshold θ:
//
//	{"a": 0, "b": 25, "theta": 0.2}
type PredicateSpec struct {
	A     float64 `json:"a"`
	B     float64 `json:"b"`
	Theta float64 `json:"theta"`
}

// Predicate validates the spec and builds the predicate.
func (s PredicateSpec) Predicate() (*mc.Predicate, error) {
	if !(s.B > s.A) {
		return nil, fmt.Errorf("wire: predicate needs b > a, got [%g, %g]", s.A, s.B)
	}
	if s.Theta < 0 || s.Theta > 1 {
		return nil, fmt.Errorf("wire: predicate theta %g outside [0, 1]", s.Theta)
	}
	return &mc.Predicate{A: s.A, B: s.B, Theta: s.Theta}, nil
}

// SparseSpec is the wire form of the budgeted sparse emulator knobs
// (core.Config.Sparse*): a positive budget replaces the exact O(n²)-per-add
// GP with the inducing-point approximation whose per-add and per-predict
// cost is O(budget²) forever, independent of how many points the instance
// has learned:
//
//	{"budget": 256, "inflate": 1.1, "swap_every": 64}
type SparseSpec struct {
	// Budget is the inducing-point cap m (≥ 2).
	Budget int `json:"budget"`
	// Inflate widens the predictive standard deviation (≥ 1); 0 selects the
	// model default.
	Inflate float64 `json:"inflate,omitempty"`
	// SwapEvery is the basis-maintenance cadence; 0 selects the budget,
	// negative disables swapping.
	SwapEvery int `json:"swap_every,omitempty"`
}

// Apply validates the spec and writes it into cfg.
func (s SparseSpec) Apply(cfg *core.Config) error {
	if s.Budget < 2 {
		return fmt.Errorf("wire: sparse budget %d must be ≥ 2", s.Budget)
	}
	if s.Inflate < 0 || (s.Inflate > 0 && s.Inflate < 1) {
		return fmt.Errorf("wire: sparse inflate %g must be ≥ 1 (or 0 for the default)", s.Inflate)
	}
	cfg.SparseBudget = s.Budget
	cfg.SparseInflate = s.Inflate
	cfg.SparseSwapEvery = s.SwapEvery
	return nil
}

// StatSpec is the wire form of the statistic bounded operators rank and
// aggregate on:
//
//	{"kind": "mean"}
//	{"kind": "quantile", "p": 0.9}
type StatSpec struct {
	Kind string  `json:"kind"`
	P    float64 `json:"p,omitempty"`
}

// Stat validates the spec and builds the statistic. An empty kind is the
// mean, mirroring query.Stat's zero value.
func (s StatSpec) Stat() (query.Stat, error) {
	switch s.Kind {
	case "", "mean":
		return query.MeanStat(), nil
	case "quantile":
		if !(s.P >= 0 && s.P <= 1) {
			return query.Stat{}, fmt.Errorf("wire: quantile level %g outside [0, 1]", s.P)
		}
		return query.QuantileStat(s.P), nil
	default:
		return query.Stat{}, fmt.Errorf("wire: unknown statistic kind %q (want mean or quantile)", s.Kind)
	}
}

// AggSpec is the wire form of one aggregate column:
//
//	{"kind": "count"}
//	{"kind": "avg", "attr": "y", "stat": {"kind": "mean"}, "as": "avg_y"}
type AggSpec struct {
	Kind string    `json:"kind"`
	Attr string    `json:"attr,omitempty"`
	Stat *StatSpec `json:"stat,omitempty"`
	As   string    `json:"as,omitempty"`
}

var aggKinds = map[string]query.AggKind{
	"count": query.AggCount,
	"sum":   query.AggSum,
	"avg":   query.AggAvg,
	"min":   query.AggMin,
	"max":   query.AggMax,
}

// Agg validates the spec and builds the aggregate column.
func (s AggSpec) Agg() (query.Agg, error) {
	kind, ok := aggKinds[s.Kind]
	if !ok {
		return query.Agg{}, fmt.Errorf("wire: unknown aggregate kind %q (want count, sum, avg, min, or max)", s.Kind)
	}
	a := query.Agg{Kind: kind, Attr: s.Attr, As: s.As}
	if s.Stat != nil {
		st, err := s.Stat.Stat()
		if err != nil {
			return query.Agg{}, err
		}
		a.Stat = st
	}
	if kind != query.AggCount && s.Attr == "" {
		return query.Agg{}, fmt.Errorf("wire: aggregate %q needs \"attr\"", s.Kind)
	}
	return a, nil
}

// TopKSpec is the wire form of a bounded top-k / order-by stage:
//
//	{"k": 5, "by": "y", "stat": {"kind": "mean"}, "desc": true, "as": "rank"}
//
// k ≤ 0 ranks the whole input.
type TopKSpec struct {
	K    int       `json:"k"`
	By   string    `json:"by"`
	Stat *StatSpec `json:"stat,omitempty"`
	Desc bool      `json:"desc,omitempty"`
	As   string    `json:"as,omitempty"`
}

// Spec validates and builds the rank spec.
func (s TopKSpec) Spec() (query.RankSpec, error) {
	if s.By == "" {
		return query.RankSpec{}, fmt.Errorf("wire: top-k needs \"by\"")
	}
	r := query.RankSpec{By: s.By, K: s.K, Desc: s.Desc, As: s.As}
	if s.Stat != nil {
		st, err := s.Stat.Stat()
		if err != nil {
			return query.RankSpec{}, err
		}
		r.Stat = st
	}
	return r, nil
}

// WindowSpec is the wire form of a sliding-window aggregate stage:
//
//	{"size": 10, "step": 5, "aggs": [{"kind": "avg", "attr": "y"}]}
type WindowSpec struct {
	Size int       `json:"size"`
	Step int       `json:"step,omitempty"`
	Aggs []AggSpec `json:"aggs"`
}

// Spec validates and builds the window spec.
func (s WindowSpec) Spec() (query.WindowSpec, error) {
	if s.Size <= 0 {
		return query.WindowSpec{}, fmt.Errorf("wire: window size %d, want > 0", s.Size)
	}
	if len(s.Aggs) == 0 {
		return query.WindowSpec{}, fmt.Errorf("wire: window needs at least one aggregate")
	}
	w := query.WindowSpec{Size: s.Size, Step: s.Step}
	for i, as := range s.Aggs {
		a, err := as.Agg()
		if err != nil {
			return query.WindowSpec{}, fmt.Errorf("wire: window agg %d: %w", i, err)
		}
		w.Aggs = append(w.Aggs, a)
	}
	return w, nil
}

// GroupBySpec is the wire form of a grouped aggregate stage:
//
//	{"keys": ["g"], "aggs": [{"kind": "count"}, {"kind": "max", "attr": "y"}]}
type GroupBySpec struct {
	Keys []string  `json:"keys"`
	Aggs []AggSpec `json:"aggs"`
}

// Spec validates and builds the group-by spec.
func (s GroupBySpec) Spec() (query.GroupBySpec, error) {
	if len(s.Keys) == 0 {
		return query.GroupBySpec{}, fmt.Errorf("wire: group-by needs \"keys\"")
	}
	if len(s.Aggs) == 0 {
		return query.GroupBySpec{}, fmt.Errorf("wire: group-by needs at least one aggregate")
	}
	g := query.GroupBySpec{Keys: append([]string(nil), s.Keys...)}
	for i, as := range s.Aggs {
		a, err := as.Agg()
		if err != nil {
			return query.GroupBySpec{}, fmt.Errorf("wire: group-by agg %d: %w", i, err)
		}
		g.Aggs = append(g.Aggs, a)
	}
	return g, nil
}

// BoundedJSON is the deterministic wire form of a [certain, possible]
// interval answer.
type BoundedJSON struct {
	Lo      float64 `json:"lo"`
	Hi      float64 `json:"hi"`
	Certain bool    `json:"certain"`
}

// BoundedOf converts a query interval to its wire form.
func BoundedOf(b query.Bounded) BoundedJSON {
	return BoundedJSON{Lo: b.Lo, Hi: b.Hi, Certain: b.Certain}
}
