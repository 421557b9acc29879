package wire

import (
	"encoding/json"
	"reflect"
	"testing"

	"olgapro/internal/mc"
	"olgapro/internal/query"
)

// TestPredicateSpecRoundTrip: JSON → spec → predicate carries every field,
// and invalid specs are rejected before reaching the engine.
func TestPredicateSpecRoundTrip(t *testing.T) {
	var s PredicateSpec
	if err := json.Unmarshal([]byte(`{"a": 0, "b": 25, "theta": 0.2}`), &s); err != nil {
		t.Fatal(err)
	}
	p, err := s.Predicate()
	if err != nil {
		t.Fatal(err)
	}
	if *p != (mc.Predicate{A: 0, B: 25, Theta: 0.2}) {
		t.Fatalf("predicate: %+v", p)
	}
	for _, bad := range []PredicateSpec{
		{A: 2, B: 1, Theta: 0.5},
		{A: 1, B: 1, Theta: 0.5},
		{A: 0, B: 1, Theta: -0.1},
		{A: 0, B: 1, Theta: 1.1},
	} {
		if _, err := bad.Predicate(); err == nil {
			t.Errorf("spec %+v should be rejected", bad)
		}
	}
}

func TestStatSpecRoundTrip(t *testing.T) {
	cases := []struct {
		spec StatSpec
		want query.Stat
	}{
		{StatSpec{}, query.MeanStat()},
		{StatSpec{Kind: "mean"}, query.MeanStat()},
		{StatSpec{Kind: "quantile", P: 0.9}, query.QuantileStat(0.9)},
	}
	for _, c := range cases {
		st, err := c.spec.Stat()
		if err != nil {
			t.Fatal(err)
		}
		if st != c.want {
			t.Fatalf("%+v → %+v, want %+v", c.spec, st, c.want)
		}
	}
	if _, err := (StatSpec{Kind: "median"}).Stat(); err == nil {
		t.Error("unknown stat kind should fail")
	}
	if _, err := (StatSpec{Kind: "quantile", P: 1.5}).Stat(); err == nil {
		t.Error("out-of-range quantile should fail")
	}
}

func TestAggSpecRoundTrip(t *testing.T) {
	cases := []struct {
		raw  string
		want query.Agg
	}{
		{`{"kind": "count"}`, query.Count()},
		{`{"kind": "sum", "attr": "y", "stat": {"kind": "mean"}}`, query.Sum("y")},
		{`{"kind": "avg", "attr": "y", "stat": {"kind": "quantile", "p": 0.5}, "as": "med_avg"}`,
			query.Avg("y").WithStat(query.QuantileStat(0.5)).Named("med_avg")},
		{`{"kind": "min", "attr": "y"}`, query.Min("y")},
		{`{"kind": "max", "attr": "y", "as": "peak"}`, query.Max("y").Named("peak")},
	}
	for _, c := range cases {
		var s AggSpec
		if err := json.Unmarshal([]byte(c.raw), &s); err != nil {
			t.Fatal(err)
		}
		got, err := s.Agg()
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Fatalf("%s → %+v, want %+v", c.raw, got, c.want)
		}
	}
	if _, err := (AggSpec{Kind: "median"}).Agg(); err == nil {
		t.Error("unknown aggregate kind should fail")
	}
	if _, err := (AggSpec{Kind: "sum"}).Agg(); err == nil {
		t.Error("value aggregate without attr should fail")
	}
}

func TestTopKSpecRoundTrip(t *testing.T) {
	var s TopKSpec
	raw := `{"k": 5, "by": "y", "stat": {"kind": "quantile", "p": 0.9}, "desc": true, "as": "r"}`
	if err := json.Unmarshal([]byte(raw), &s); err != nil {
		t.Fatal(err)
	}
	spec, err := s.Spec()
	if err != nil {
		t.Fatal(err)
	}
	want := query.RankSpec{By: "y", Stat: query.QuantileStat(0.9), K: 5, Desc: true, As: "r"}
	if spec != want {
		t.Fatalf("spec: %+v", spec)
	}
	if _, err := (TopKSpec{K: 3}).Spec(); err == nil {
		t.Error("top-k without by should fail")
	}
}

func TestWindowSpecRoundTrip(t *testing.T) {
	var s WindowSpec
	raw := `{"size": 10, "step": 5, "aggs": [{"kind": "count"}, {"kind": "avg", "attr": "y"}]}`
	if err := json.Unmarshal([]byte(raw), &s); err != nil {
		t.Fatal(err)
	}
	spec, err := s.Spec()
	if err != nil {
		t.Fatal(err)
	}
	want := query.WindowSpec{Size: 10, Step: 5, Aggs: []query.Agg{query.Count(), query.Avg("y")}}
	if !reflect.DeepEqual(spec, want) {
		t.Fatalf("spec: %+v, want %+v", spec, want)
	}
	if _, err := (WindowSpec{Size: 0, Aggs: s.Aggs}).Spec(); err == nil {
		t.Error("size 0 should fail")
	}
	if _, err := (WindowSpec{Size: 3}).Spec(); err == nil {
		t.Error("no aggregates should fail")
	}
	if _, err := (WindowSpec{Size: 3, Aggs: []AggSpec{{Kind: "nope"}}}).Spec(); err == nil {
		t.Error("bad nested aggregate should fail")
	}
}

func TestGroupBySpecRoundTrip(t *testing.T) {
	var s GroupBySpec
	raw := `{"keys": ["g"], "aggs": [{"kind": "count"}, {"kind": "max", "attr": "y"}]}`
	if err := json.Unmarshal([]byte(raw), &s); err != nil {
		t.Fatal(err)
	}
	spec, err := s.Spec()
	if err != nil {
		t.Fatal(err)
	}
	want := query.GroupBySpec{Keys: []string{"g"}, Aggs: []query.Agg{query.Count(), query.Max("y")}}
	if !reflect.DeepEqual(spec, want) {
		t.Fatalf("spec: %+v, want %+v", spec, want)
	}
	if _, err := (GroupBySpec{Aggs: s.Aggs}).Spec(); err == nil {
		t.Error("no keys should fail")
	}
	if _, err := (GroupBySpec{Keys: []string{"g"}}).Spec(); err == nil {
		t.Error("no aggregates should fail")
	}
}

func TestBoundedJSON(t *testing.T) {
	b := BoundedOf(query.Bounded{Lo: 1, Hi: 2, Certain: true})
	raw, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != `{"lo":1,"hi":2,"certain":true}` {
		t.Fatalf("json: %s", raw)
	}
}
