package wire

import (
	"encoding/json"
	"math"
	"testing"

	"olgapro/internal/dist"
	"olgapro/internal/query"
)

// roundTripPartial encodes a partial to its wire form, through JSON bytes,
// and back — the exact path a scattered sub-plan result takes.
func roundTripPartial(t *testing.T, p *query.Partial) *query.Partial {
	t.Helper()
	b, err := json.Marshal(PartialOf(p))
	if err != nil {
		t.Fatal(err)
	}
	var a AggPartialJSON
	if err := json.Unmarshal(b, &a); err != nil {
		t.Fatal(err)
	}
	q, err := a.Partial()
	if err != nil {
		t.Fatalf("rebuild %s partial: %v", p.Kind, err)
	}
	return q
}

func TestAggPartialRoundTripPreservesBound(t *testing.T) {
	items := []query.PartialItem{
		{Ord: 0, Lo: -1.5, Hi: 2.25, Sure: true},
		{Ord: 3, Lo: math.Copysign(0, -1), Hi: 0.5, Sure: false},
		{Ord: 7, Lo: 4, Hi: 4, Sure: true},
	}
	for _, kind := range []query.AggKind{query.AggCount, query.AggSum, query.AggAvg, query.AggMin, query.AggMax} {
		p := query.NewPartial(kind)
		for _, it := range items {
			p.Observe(it)
		}
		q := roundTripPartial(t, p)
		want, got := p.Bound(), q.Bound()
		if want != got {
			t.Errorf("%s: bound %v after round trip, want %v", kind, got, want)
		}
		if q.N != p.N || q.Sure != p.Sure {
			t.Errorf("%s: counters (%d, %d) after round trip, want (%d, %d)", kind, q.N, q.Sure, p.N, p.Sure)
		}
	}
}

func TestAggPartialRoundTripRestoresFoldIdentities(t *testing.T) {
	// JSON cannot carry ±Inf; the conversions must restore the sentinels of
	// an empty (or no-sure-member) min/max partial so later Merges stay
	// bit-identical to serial folds.
	empty := roundTripPartial(t, query.NewPartial(query.AggMin))
	if !math.IsInf(empty.Lo, 1) || !math.IsInf(empty.SureCap, 1) || !math.IsInf(empty.AllCap, -1) {
		t.Fatalf("empty min partial sentinels not restored: %+v", empty)
	}
	noSure := query.NewPartial(query.AggMax)
	noSure.Observe(query.PartialItem{Ord: 2, Lo: 1, Hi: 3, Sure: false})
	got := roundTripPartial(t, noSure)
	if !math.IsInf(got.SureCap, 1) {
		t.Fatalf("sure cap sentinel not restored: %+v", got)
	}
	if got.Bound() != noSure.Bound() {
		t.Fatalf("bound %v after round trip, want %v", got.Bound(), noSure.Bound())
	}
}

func TestAggPartialRejectsMalformedWireState(t *testing.T) {
	cases := []struct {
		name string
		a    AggPartialJSON
	}{
		{"unknown kind", AggPartialJSON{Kind: "median", N: 1}},
		{"negative n", AggPartialJSON{Kind: "count", N: -1}},
		{"sure above n", AggPartialJSON{Kind: "count", N: 1, Sure: 2}},
		{"sum item count mismatch", AggPartialJSON{Kind: "sum", N: 2, Items: []AggItemJSON{{Ord: 0}}}},
		{"items out of ordinal order", AggPartialJSON{Kind: "avg", N: 2, Items: []AggItemJSON{{Ord: 5}, {Ord: 5}}}},
	}
	for _, tc := range cases {
		if _, err := tc.a.Partial(); err == nil {
			t.Errorf("%s: accepted %+v", tc.name, tc.a)
		}
	}
}

func TestRankKeyRoundTrip(t *testing.T) {
	k := query.RankKey{Ord: 42, Lo: -0.5, Hi: 1.5, Sure: true}
	got := RankKeyOf(k).Key(42)
	if got != k {
		t.Fatalf("round trip %+v, want %+v", got, k)
	}
}

func TestEncodeValueRoundTrip(t *testing.T) {
	vals := []query.Value{
		query.Int(-7),
		query.Float(math.Copysign(0, -1)),
		query.Str("g"),
		query.BoundedVal(query.Bounded{Lo: 1, Hi: 3, Certain: true}),
	}
	for _, v := range vals {
		qv, err := EncodeValue("a", v)
		if err != nil {
			t.Fatalf("encode %s: %v", v.Kind, err)
		}
		got, err := qv.Value()
		if err != nil {
			t.Fatalf("rebuild %s: %v", v.Kind, err)
		}
		if got.String() != v.String() || got.Kind != v.Kind {
			t.Errorf("%s: round trip %v, want %v", v.Kind, got, v)
		}
	}
	// Negative zero must survive bit-exactly, not just compare equal.
	qv, _ := EncodeValue("z", query.Float(math.Copysign(0, -1)))
	got, _ := qv.Value()
	if math.Signbit(got.F) != true {
		t.Fatal("negative zero lost its sign in the round trip")
	}
}

func TestEncodeValueUncertainAndRejections(t *testing.T) {
	qv, err := EncodeValue("x", query.Uncertain(dist.Normal{Mu: 0.3, Sigma: 0.1}))
	if err != nil {
		t.Fatal(err)
	}
	if qv.Kind != "uncertain" || qv.Dist == nil {
		t.Fatalf("uncertain encoding: %+v", qv)
	}
	// Uncertain values are not self-contained on the answer side.
	if _, err := qv.Value(); err == nil {
		t.Fatal("rebuilt an uncertain value without a dist registry")
	}
	if _, err := EncodeValue("r", query.Value{Kind: query.KindResult}); err == nil {
		t.Fatal("encoded a result value without engine metadata")
	}
	for _, kind := range []string{"int", "float", "string", "bounded"} {
		if _, err := (QueryValue{Name: "p", Kind: kind}).Value(); err == nil {
			t.Errorf("%s: rebuilt a value with no payload", kind)
		}
	}
}

func TestGroupPartialRoundTrip(t *testing.T) {
	agg := query.NewPartial(query.AggAvg)
	agg.Observe(query.PartialItem{Ord: 1, Lo: 2, Hi: 3, Sure: true})
	gp := &query.GroupPartial{
		Key:  "k\x00b",
		Vals: []query.Value{query.Str("b"), query.Int(4)},
		Ord:  1,
		Aggs: []*query.Partial{agg},
	}
	g, err := GroupPartialOf(gp)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	var back GroupPartialJSON
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	got, err := back.GroupPartial()
	if err != nil {
		t.Fatal(err)
	}
	if got.Key != gp.Key || got.Ord != gp.Ord || len(got.Vals) != 2 || len(got.Aggs) != 1 {
		t.Fatalf("round trip %+v, want %+v", got, gp)
	}
	if got.Aggs[0].Bound() != gp.Aggs[0].Bound() {
		t.Fatalf("aggregate bound %v, want %v", got.Aggs[0].Bound(), gp.Aggs[0].Bound())
	}

	// Encoding rejects key values that are not self-contained; decoding
	// rejects malformed aggregate state.
	bad := &query.GroupPartial{Key: "k", Vals: []query.Value{{Kind: query.KindResult}}}
	if _, err := GroupPartialOf(bad); err == nil {
		t.Fatal("encoded a group keyed on a result value")
	}
	back.Aggs[0].Kind = "median"
	if _, err := back.GroupPartial(); err == nil {
		t.Fatal("rebuilt a group with an unknown aggregate kind")
	}
	// A group observed at least one tuple: an empty avg would finish to a
	// NaN bound.
	empty := GroupPartialJSON{Key: "k", Aggs: []AggPartialJSON{{Kind: "avg"}}}
	if _, err := empty.GroupPartial(); err == nil {
		t.Fatal("rebuilt a group whose aggregate observed no tuple")
	}
}

func TestRegisterRequestSpec(t *testing.T) {
	r := RegisterRequest{
		Name: "g", UDF: "astro/galage", Eps: 0.1, Delta: 0.05,
		Sparse: &SparseSpec{Budget: 32},
		Warmup: []InputSpec{{{Type: "constant", Value: 1}}},
	}
	spec := r.Spec()
	if spec.Name != "g" || spec.UDF != "astro/galage" || spec.Eps != 0.1 || spec.Delta != 0.05 || spec.Sparse == nil {
		t.Fatalf("spec: %+v", spec)
	}
}
