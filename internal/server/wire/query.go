package wire

// This file is the wire form of the bounded-query surface, single-shard and
// distributed: the POST /v1/query request/response bodies, the
// POST /v1/query/partials sub-plan the fleet router scatters to shards, and
// the partial-result bodies it gathers back — mergeable interval state
// (internal/query Partial / GroupPartial / RankKey) stamped with model
// sequence numbers so the router detects a replica mid-catch-up and
// retries. Every float field that can legitimately be negative zero or an
// exact bit pattern is encoded without omitempty: encoding/json's
// shortest-round-trip float formatting then makes equal values marshal to
// equal bytes, which the cross-shard bit-identity gate depends on.

import (
	"fmt"

	"olgapro/internal/query"
)

// MaxQueryRows caps the relation of one /v1/query — and the merged answer
// relation of a cross-shard query. Larger inputs should stream
// (POST /v1/udfs/{name}/stream); a merged answer over the cap is refused
// with a structured over_capacity error, never truncated silently.
const MaxQueryRows = 4096

// MaxRequestBytes caps the body of every non-stream JSON request, on shards
// and on the fleet router; a larger body is refused with 413 over_capacity
// after reading at most one byte past the cap. It admits a MaxQueryRows
// query at the catalog's largest arity (4) with every scalar field of every
// spec spelled at full float64 precision, about 5.7 MB.
const MaxRequestBytes = 16 << 20

// QueryRow is one input tuple of the request relation: the UDF input spec
// plus an optional group label (exposed as certain attribute "g"). UDF, on
// a fleet router, routes the row to a specific UDF instance — rows of one
// request may target instances owned by different shards; empty means the
// request-level UDF.
type QueryRow struct {
	Input InputSpec `json:"input"`
	Group string    `json:"group,omitempty"`
	UDF   string    `json:"udf,omitempty"`
}

// QueryRequest is the wire form of one bounded query (POST /v1/query).
type QueryRequest struct {
	UDF       string         `json:"udf"`
	Rows      []QueryRow     `json:"rows"`
	Seed      int64          `json:"seed"`
	Predicate *PredicateSpec `json:"predicate,omitempty"`
	Window    *WindowSpec    `json:"window,omitempty"`
	GroupBy   *GroupBySpec   `json:"group_by,omitempty"`
	TopK      *TopKSpec      `json:"topk,omitempty"`
	// RequireSeq, per UDF instance, refuses service from any replica whose
	// model sequence is below the given number (model_cold, HTTP 409) —
	// read-your-writes across replica catch-up.
	RequireSeq map[string]int64 `json:"require_seq,omitempty"`
}

// QueryValue is the deterministic wire form of one output attribute.
// Exactly one payload field is set, matching Kind.
type QueryValue struct {
	Name    string       `json:"name"`
	Kind    string       `json:"kind"`
	Int     *int64       `json:"int,omitempty"`
	Float   *float64     `json:"float,omitempty"`
	Str     *string      `json:"str,omitempty"`
	Dist    *DistSpec    `json:"dist,omitempty"`
	Bounded *BoundedJSON `json:"bounded,omitempty"`
	Result  *EvalResult  `json:"result,omitempty"`
	TEP     *float64     `json:"tep,omitempty"`
}

// QueryResponse is the wire form of the answer relation. Field order is
// fixed by the struct, so equal results marshal to equal bytes.
type QueryResponse struct {
	UDF     string         `json:"udf"`
	Rows    [][]QueryValue `json:"rows"`
	Dropped int            `json:"dropped"`
}

// PartialRowSpec is one input tuple of a scattered sub-plan: the input spec
// plus the tuple's global ordinal in the union relation, which seeds its
// RNG stream (query.TupleSeed) and orders it against every other shard's
// tuples.
type PartialRowSpec struct {
	Ord   int64     `json:"ord"`
	Input InputSpec `json:"input"`
	Group string    `json:"group,omitempty"`
}

// QueryPartialsRequest is the POST /v1/query/partials body: the per-shard
// sub-plan of a distributed query. At most one stage (window / group_by /
// topk) is set — the first stage of the original plan; the router runs any
// later stages over the merged partials itself.
type QueryPartialsRequest struct {
	UDF       string           `json:"udf"`
	Rows      []PartialRowSpec `json:"rows"`
	Seed      int64            `json:"seed"`
	Predicate *PredicateSpec   `json:"predicate,omitempty"`
	// MinSeq refuses service when the shard's model sequence for UDF is
	// below it (model_cold, HTTP 409): the replica is mid-catch-up and the
	// router should retry another member of the replica set.
	MinSeq  int64        `json:"min_seq,omitempty"`
	Window  *WindowSpec  `json:"window,omitempty"`
	GroupBy *GroupBySpec `json:"group_by,omitempty"`
	TopK    *TopKSpec    `json:"topk,omitempty"`
}

// AggItemJSON is one tuple's contribution to a distributed aggregate
// (query.PartialItem): its statistic interval, existence certainty, and
// global ordinal. Lo and Hi are never omitted — negative zero must survive
// the round trip bit-exactly.
type AggItemJSON struct {
	Ord  int64   `json:"ord"`
	Lo   float64 `json:"lo"`
	Hi   float64 `json:"hi"`
	Sure bool    `json:"sure"`
}

// ItemOf converts a partial item to its wire form.
func ItemOf(it query.PartialItem) AggItemJSON {
	return AggItemJSON{Ord: it.Ord, Lo: it.Lo, Hi: it.Hi, Sure: it.Sure}
}

// Item rebuilds the partial item.
func (a AggItemJSON) Item() query.PartialItem {
	return query.PartialItem{Ord: a.Ord, Lo: a.Lo, Hi: a.Hi, Sure: a.Sure}
}

// RankKeyJSON is one tuple's oriented top-k rank key (query.RankKey minus
// the ordinal, which the enclosing PartialRow carries).
type RankKeyJSON struct {
	Lo   float64 `json:"lo"`
	Hi   float64 `json:"hi"`
	Sure bool    `json:"sure"`
}

// RankKeyOf converts an oriented rank key to its wire form.
func RankKeyOf(k query.RankKey) RankKeyJSON {
	return RankKeyJSON{Lo: k.Lo, Hi: k.Hi, Sure: k.Sure}
}

// Key rebuilds the rank key at the given global ordinal.
func (r RankKeyJSON) Key(ord int64) query.RankKey {
	return query.RankKey{Ord: ord, Lo: r.Lo, Hi: r.Hi, Sure: r.Sure}
}

// AggPartialJSON is the wire form of one mergeable aggregate state
// (query.Partial). The scalar envelope fields are meaningful only for
// min/max and only when the matching counter is positive; the conversions
// restore the fold-identity sentinels (±Inf, which JSON cannot carry) from
// N and Sure on decode.
type AggPartialJSON struct {
	Kind    string        `json:"kind"`
	N       int           `json:"n"`
	Sure    int           `json:"sure"`
	Lo      float64       `json:"lo"`
	SureCap float64       `json:"sure_cap"`
	AllCap  float64       `json:"all_cap"`
	Items   []AggItemJSON `json:"items,omitempty"`
}

// PartialOf converts an aggregate partial to its wire form.
func PartialOf(p *query.Partial) AggPartialJSON {
	a := AggPartialJSON{Kind: p.Kind.String(), N: p.N, Sure: p.Sure}
	if p.Kind == query.AggMin || p.Kind == query.AggMax {
		if p.N > 0 {
			a.Lo, a.AllCap = p.Lo, p.AllCap
		}
		if p.Sure > 0 {
			a.SureCap = p.SureCap
		}
	}
	for _, it := range p.Items {
		a.Items = append(a.Items, ItemOf(it))
	}
	return a
}

// Partial validates the wire form and rebuilds the mergeable state.
func (a AggPartialJSON) Partial() (*query.Partial, error) {
	kind, ok := aggKinds[a.Kind]
	if !ok {
		return nil, fmt.Errorf("wire: unknown aggregate kind %q", a.Kind)
	}
	if a.N < 0 || a.Sure < 0 || a.Sure > a.N {
		return nil, fmt.Errorf("wire: partial counters n=%d sure=%d out of range", a.N, a.Sure)
	}
	p := query.NewPartial(kind)
	p.N, p.Sure = a.N, a.Sure
	if kind == query.AggMin || kind == query.AggMax {
		if a.N > 0 {
			p.Lo, p.AllCap = a.Lo, a.AllCap
		}
		if a.Sure > 0 {
			p.SureCap = a.SureCap
		}
	}
	if kind == query.AggSum || kind == query.AggAvg {
		if len(a.Items) != a.N {
			return nil, fmt.Errorf("wire: %s partial has %d items for n=%d", a.Kind, len(a.Items), a.N)
		}
		for i, it := range a.Items {
			if i > 0 && it.Ord <= a.Items[i-1].Ord {
				return nil, fmt.Errorf("wire: partial items not in ascending ordinal order at %d", i)
			}
			p.Items = append(p.Items, it.Item())
		}
	}
	return p, nil
}

// GroupPartialJSON is the wire form of one group's mergeable state
// (query.GroupPartial): the collision-free key encoding, the key attribute
// values, the group's first-seen global ordinal, and one aggregate partial
// per spec column.
type GroupPartialJSON struct {
	Key  string           `json:"key"`
	Vals []QueryValue     `json:"vals"`
	Ord  int64            `json:"ord"`
	Aggs []AggPartialJSON `json:"aggs"`
}

// GroupPartialOf converts a group partial to its wire form.
func GroupPartialOf(gp *query.GroupPartial) (GroupPartialJSON, error) {
	g := GroupPartialJSON{Key: gp.Key, Ord: gp.Ord}
	for i, v := range gp.Vals {
		qv, err := EncodeValue("", v)
		if err != nil {
			return GroupPartialJSON{}, fmt.Errorf("wire: group %s key value %d: %w", gp.Key, i, err)
		}
		g.Vals = append(g.Vals, qv)
	}
	for _, p := range gp.Aggs {
		g.Aggs = append(g.Aggs, PartialOf(p))
	}
	return g, nil
}

// GroupPartial validates the wire form and rebuilds the mergeable state.
func (g GroupPartialJSON) GroupPartial() (*query.GroupPartial, error) {
	gp := &query.GroupPartial{Key: g.Key, Ord: g.Ord}
	for i, qv := range g.Vals {
		v, err := qv.Value()
		if err != nil {
			return nil, fmt.Errorf("wire: group %s key value %d: %w", g.Key, i, err)
		}
		gp.Vals = append(gp.Vals, v)
	}
	for i, a := range g.Aggs {
		// Every group has observed at least one tuple; an empty aggregate
		// would finish to a NaN bound.
		if a.N == 0 {
			return nil, fmt.Errorf("wire: group %s aggregate %d observed no tuple", g.Key, i)
		}
		p, err := a.Partial()
		if err != nil {
			return nil, fmt.Errorf("wire: group %s aggregate %d: %w", g.Key, i, err)
		}
		gp.Aggs = append(gp.Aggs, p)
	}
	return gp, nil
}

// PartialRow is one surviving tuple of a scattered sub-plan, in ascending
// global-ordinal order. Which payload fields are set depends on the
// sub-plan's stage: Row alone for a stageless query; Items (one entry per
// window aggregate) for a window stage; Rank plus — only when the tuple can
// still possibly reach the global top k — Row, for a top-k stage.
type PartialRow struct {
	Ord   int64         `json:"ord"`
	Row   []QueryValue  `json:"row,omitempty"`
	Items []AggItemJSON `json:"items,omitempty"`
	Rank  *RankKeyJSON  `json:"rank,omitempty"`
}

// QueryPartials is the POST /v1/query/partials response: the shard's
// partial bounded state, stamped with the model sequence it was computed at
// (also in the Olgapro-Model-Seq header) so the router can prove which
// model version answered.
type QueryPartials struct {
	UDF      string             `json:"udf"`
	ModelSeq int64              `json:"model_seq"`
	Dropped  int                `json:"dropped"`
	Rows     []PartialRow       `json:"rows,omitempty"`
	Groups   []GroupPartialJSON `json:"groups,omitempty"`
}

// EncodeValue flattens one attribute value into its wire form. It covers
// every self-contained kind (int, float, string, uncertain, bounded);
// result values need engine metadata and are encoded by the serving layer.
func EncodeValue(name string, v query.Value) (QueryValue, error) {
	qv := QueryValue{Name: name, Kind: v.Kind.String()}
	switch v.Kind {
	case query.KindInt:
		i := v.I
		qv.Int = &i
	case query.KindFloat:
		f := v.F
		qv.Float = &f
	case query.KindString:
		s := v.S
		qv.Str = &s
	case query.KindUncertain:
		spec, err := SpecOf(v.D)
		if err != nil {
			return QueryValue{}, fmt.Errorf("attribute %q: %w", name, err)
		}
		qv.Dist = &spec
	case query.KindBounded:
		b := BoundedOf(v.B)
		qv.Bounded = &b
	default:
		return QueryValue{}, fmt.Errorf("attribute %q: cannot encode kind %s", name, v.Kind)
	}
	return qv, nil
}

// Value rebuilds a self-contained attribute value from its wire form; kinds
// carrying engine metadata (result) are rejected.
func (qv QueryValue) Value() (query.Value, error) {
	switch qv.Kind {
	case "int":
		if qv.Int == nil {
			return query.Value{}, fmt.Errorf("wire: int value %q missing payload", qv.Name)
		}
		return query.Int(*qv.Int), nil
	case "float":
		if qv.Float == nil {
			return query.Value{}, fmt.Errorf("wire: float value %q missing payload", qv.Name)
		}
		return query.Float(*qv.Float), nil
	case "string":
		if qv.Str == nil {
			return query.Value{}, fmt.Errorf("wire: string value %q missing payload", qv.Name)
		}
		return query.Str(*qv.Str), nil
	case "bounded":
		if qv.Bounded == nil {
			return query.Value{}, fmt.Errorf("wire: bounded value %q missing payload", qv.Name)
		}
		return query.BoundedVal(qv.Bounded.Bounded()), nil
	default:
		return query.Value{}, fmt.Errorf("wire: cannot rebuild value %q of kind %q", qv.Name, qv.Kind)
	}
}

// Bounded is the inverse of BoundedOf.
func (b BoundedJSON) Bounded() query.Bounded {
	return query.Bounded{Lo: b.Lo, Hi: b.Hi, Certain: b.Certain}
}

// HeaderQuerySeqs is the response header a fleet router sets on a merged
// cross-shard /v1/query answer: comma-separated name:seq pairs (sorted by
// name) recording the model sequence each UDF instance answered at. It
// rides in a header so the merged body stays byte-identical to the same
// plan served by a single shard holding every instance.
const HeaderQuerySeqs = "Olgapro-Query-Seqs"

// RouteScope says which processes register an endpoint.
type RouteScope string

const (
	// ScopeBoth: served by shard servers and the fleet router alike.
	ScopeBoth RouteScope = "both"
	// ScopeShard: served only by shard servers (olgaprod).
	ScopeShard RouteScope = "shard"
	// ScopeRouter: served only by the fleet router (olgarouter).
	ScopeRouter RouteScope = "router"
)

// Route is one endpoint of the /v1 wire surface.
type Route struct {
	// Method and Path as registered on the serving mux ({name} is a path
	// parameter).
	Method, Path string
	Scope        RouteScope
}

// Routes is the canonical /v1 surface — one entry per endpoint the shard
// server and the fleet router register. Conformance tests pin it in both
// directions: every entry resolves on the serving muxes, and every entry
// (and every ErrorCode) appears in docs/api.md.
var Routes = []Route{
	{Method: "GET", Path: "/v1/healthz", Scope: ScopeBoth},
	{Method: "GET", Path: "/v1/stats", Scope: ScopeBoth},
	{Method: "GET", Path: "/v1/catalog", Scope: ScopeBoth},
	{Method: "GET", Path: "/v1/udfs", Scope: ScopeBoth},
	{Method: "POST", Path: "/v1/udfs", Scope: ScopeBoth},
	{Method: "POST", Path: "/v1/udfs/{name}/eval", Scope: ScopeBoth},
	{Method: "POST", Path: "/v1/udfs/{name}/stream", Scope: ScopeBoth},
	{Method: "POST", Path: "/v1/udfs/{name}/snapshot", Scope: ScopeBoth},
	{Method: "GET", Path: "/v1/udfs/{name}/snapshot", Scope: ScopeShard},
	{Method: "POST", Path: "/v1/snapshot", Scope: ScopeBoth},
	{Method: "POST", Path: "/v1/query", Scope: ScopeBoth},
	{Method: "POST", Path: "/v1/query/partials", Scope: ScopeShard},
	{Method: "GET", Path: "/v1/replication/udfs", Scope: ScopeShard},
	{Method: "GET", Path: "/v1/replication/members", Scope: ScopeShard},
	{Method: "POST", Path: "/v1/replication/members", Scope: ScopeShard},
	{Method: "GET", Path: "/v1/fleet/members", Scope: ScopeRouter},
	{Method: "POST", Path: "/v1/fleet/members", Scope: ScopeRouter},
}
