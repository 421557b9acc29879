package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"olgapro/internal/exec"
	"olgapro/internal/mc"
	"olgapro/internal/query"
	"olgapro/internal/server/wire"
)

// serialQuery is the single-instance serial plan the shard's /v1/query
// used to run: frozenPool → pool.Apply → Window / GroupBy / TopK →
// encodeQueryTuple. It is kept here as the reference the
// partials-then-merge path must reproduce byte for byte.
func serialQuery(t *testing.T, s *Server, req wire.QueryRequest) []byte {
	t.Helper()
	e, ok := s.reg.Get(req.UDF)
	if !ok {
		t.Fatalf("no UDF %q", req.UDF)
	}
	dim := e.def.entry.Dim
	tuples := make([]*query.Tuple, len(req.Rows))
	for i, row := range req.Rows {
		tu, err := row.Input.Tuple(int64(i))
		if err != nil {
			t.Fatal(err)
		}
		tuples[i] = tu.With("g", query.Str(row.Group))
	}
	var pred *mc.Predicate
	if req.Predicate != nil {
		p, err := req.Predicate.Predicate()
		if err != nil {
			t.Fatal(err)
		}
		pred = p
	}
	ctx := context.Background()
	pool, release, err := e.frozenPool(ctx, s.cfg.Workers)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	pe := pool.Apply(query.NewScan(tuples), wire.AttrNames(dim), "y",
		exec.Options{Ctx: ctx, Seed: req.Seed, Predicate: pred, KeepEnvelope: true})
	defer pe.Close()

	plan := query.FromIterator(pe)
	if req.Window != nil {
		spec, err := req.Window.Spec()
		if err != nil {
			t.Fatal(err)
		}
		plan = plan.Window(spec)
	}
	if req.GroupBy != nil {
		spec, err := req.GroupBy.Spec()
		if err != nil {
			t.Fatal(err)
		}
		plan = plan.GroupBy(spec)
	}
	if req.TopK != nil {
		spec, err := req.TopK.Spec()
		if err != nil {
			t.Fatal(err)
		}
		plan = plan.TopK(spec)
	}
	out, err := plan.Run()
	if err != nil {
		t.Fatal(err)
	}
	resp := wire.QueryResponse{UDF: req.UDF, Dropped: pe.Dropped, Rows: make([][]wire.QueryValue, len(out))}
	for i, tu := range out {
		if resp.Rows[i], err = encodeQueryTuple(tu, e.cfg.Eps); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestQueryMatchesSerialPlan pins the shard's /v1/query — now the
// one-partition case of the partial merge — to the serial plan over every
// plan shape: no stage, a TEP predicate (which drops tuples), each first
// stage alone, and the first stage followed by top-k.
func TestQueryMatchesSerialPlan(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	name := registerSmooth(t, ts.URL)
	pred := map[string]any{"a": 0.5, "b": 5.0, "theta": 0.5}
	window := map[string]any{"size": 4, "step": 2,
		"aggs": []map[string]any{{"kind": "count"}, {"kind": "sum", "attr": "y"}, {"kind": "avg", "attr": "y"}}}
	groupBy := map[string]any{"keys": []string{"g"},
		"aggs": []map[string]any{{"kind": "count"}, {"kind": "avg", "attr": "y"}, {"kind": "min", "attr": "y"}, {"kind": "max", "attr": "y"}}}
	plans := []struct {
		label string
		plan  map[string]any
	}{
		{"no stage", map[string]any{}},
		{"predicate", map[string]any{"predicate": pred}},
		{"window", map[string]any{"window": window}},
		{"group-by", map[string]any{"predicate": pred, "group_by": groupBy}},
		{"top-k", map[string]any{"topk": map[string]any{"k": 3, "by": "y", "desc": true}}},
		{"groupby_topk", map[string]any{"group_by": groupBy, "topk": map[string]any{"k": 2, "by": "avg_y", "desc": true}}},
		{"window_topk", map[string]any{"predicate": pred, "window": window, "topk": map[string]any{"k": 2, "by": "avg_y"}}},
	}
	for _, p := range plans {
		body := map[string]any{"udf": name, "seed": 13, "rows": queryRows(14, 3)}
		for k, v := range p.plan {
			body[k] = v
		}
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		var req wire.QueryRequest
		if err := json.Unmarshal(raw, &req); err != nil {
			t.Fatal(err)
		}
		want := serialQuery(t, s, req)
		resp, got := postJSON(t, ts.URL+"/v1/query", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d %s", p.label, resp.StatusCode, got)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: /v1/query diverged from the serial plan:\n%s\nvs\n%s", p.label, got, want)
		}
		if seqs := resp.Header.Get(wire.HeaderQuerySeqs); !strings.HasPrefix(seqs, name+":") || strings.Contains(seqs, ",") {
			t.Fatalf("%s: %s header %q, want one %s:seq pair", p.label, wire.HeaderQuerySeqs, seqs, name)
		}
	}
}

// TestQueryOverRowCap asserts a relation past wire.MaxQueryRows is refused
// up front with 413 over_capacity and no retry hint: it never shrinks on
// retry.
func TestQueryOverRowCap(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	name := registerSmooth(t, ts.URL)
	rows := make([]map[string]any, wire.MaxQueryRows+1)
	for i := range rows {
		rows[i] = map[string]any{"input": wire.InputSpec{{Type: "constant", Value: 0.5}, {Type: "constant", Value: 0.5}}}
	}
	resp, body := postJSON(t, ts.URL+"/v1/query", map[string]any{"udf": name, "rows": rows})
	env := wantEnvelope(t, resp, body, http.StatusRequestEntityTooLarge, wire.CodeOverCapacity)
	if env.Error.RetryAfterMS != 0 || resp.Header.Get("Retry-After") != "" {
		t.Fatalf("413 carries a retry hint: %s (Retry-After %q)", body, resp.Header.Get("Retry-After"))
	}
}
