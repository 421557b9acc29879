package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"strings"
	"testing"

	"olgapro/internal/exec"
	"olgapro/internal/mc"
	"olgapro/internal/query"
	"olgapro/internal/server/wire"
)

// serialQuery is the serial plan the shard's /v1/query used to run, over
// a relation whose rows may name different instances: each row's tuple is
// built by InputSpec.Tuple and With("g"), evaluated by its instance's
// frozen pool through pool.Apply at its global ordinal, and the survivors
// of every instance, in ordinal order, go through Window / GroupBy / TopK
// and encodeQueryTuple. It is kept here as the reference the
// partials-then-merge path must reproduce byte for byte. The instances
// must share one eps, the one stageless rows are encoded under.
func serialQuery(t *testing.T, s *Server, req wire.QueryRequest) []byte {
	t.Helper()
	byUDF := map[string][]int{}
	for i, row := range req.Rows {
		name := row.UDF
		if name == "" {
			name = req.UDF
		}
		byUDF[name] = append(byUDF[name], i)
	}
	var pred *mc.Predicate
	if req.Predicate != nil {
		p, err := req.Predicate.Predicate()
		if err != nil {
			t.Fatal(err)
		}
		pred = p
	}
	var (
		survivors []*query.Tuple
		dropped   int
		eps       float64
	)
	for name, idx := range byUDF {
		e, ok := s.reg.Get(name)
		if !ok {
			t.Fatalf("no UDF %q", name)
		}
		eps = e.cfg.Eps
		tuples := make([]*query.Tuple, len(idx))
		ords := make([]int64, len(idx))
		for j, i := range idx {
			tu, err := req.Rows[i].Input.Tuple(int64(i))
			if err != nil {
				t.Fatal(err)
			}
			tuples[j] = tu.With("g", query.Str(req.Rows[i].Group))
			ords[j] = int64(i)
		}
		out, n := applyFrozen(t, e, s.cfg.Workers, tuples,
			exec.Options{Seed: req.Seed, Ords: ords, Predicate: pred, KeepEnvelope: true})
		survivors = append(survivors, out...)
		dropped += n
	}
	sort.Slice(survivors, func(i, j int) bool { return survivors[i].MustGet("id").I < survivors[j].MustGet("id").I })

	plan := query.FromIterator(query.NewScan(survivors))
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
	resp := wire.QueryResponse{UDF: req.UDF, Dropped: dropped, Rows: make([][]wire.QueryValue, len(out))}
	for i, tu := range out {
		if resp.Rows[i], err = encodeQueryTuple(tu, eps); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// applyFrozen evaluates tuples on e's frozen pool through pool.Apply and
// returns the survivors and the dropped count.
func applyFrozen(t *testing.T, e *udfEntry, workers int, tuples []*query.Tuple, opts exec.Options) ([]*query.Tuple, int) {
	t.Helper()
	ctx := context.Background()
	pool, release, err := e.frozenPool(ctx, workers)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	opts.Ctx = ctx
	pe := pool.Apply(query.NewScan(tuples), wire.AttrNames(e.def.entry.Dim), "y", opts)
	defer pe.Close()
	out, err := query.Drain(pe)
	if err != nil {
		t.Fatal(err)
	}
	return out, pe.Dropped
}

// Plan stages the reference tests run. maybePred keeps rows whose mass in
// [0.55, 5] is as low as 0.2, so survivors are maybe-tuples (TEP < 1).
var (
	queryPred = map[string]any{"a": 0.5, "b": 5.0, "theta": 0.5}
	maybePred = map[string]any{"a": 0.55, "b": 5.0, "theta": 0.2}
	queryWin  = map[string]any{"size": 4, "step": 2,
		"aggs": []map[string]any{{"kind": "count"}, {"kind": "sum", "attr": "y"}, {"kind": "avg", "attr": "y"}}}
	countWin = map[string]any{"size": 3,
		"aggs": []map[string]any{{"kind": "count"}, {"kind": "avg", "attr": "x0"}}}
	queryGroupBy = map[string]any{"keys": []string{"g"},
		"aggs": []map[string]any{{"kind": "count"}, {"kind": "avg", "attr": "y"}, {"kind": "min", "attr": "y"}, {"kind": "max", "attr": "y"}}}
	pruningTopK  = map[string]any{"k": 2, "by": "y"}
	queryRelRows = 14
	idGroupBy    = map[string]any{"keys": []string{"g", "id"},
		"aggs": []map[string]any{{"kind": "count"}, {"kind": "avg", "attr": "x0"}, {"kind": "sum", "attr": "y"}}}
)

// TestQueryMatchesSerialPlan pins the shard's /v1/query — the
// one-partition case of the partial merge — to the serial plan over every
// plan shape, at 1, 2 and 4 workers: no stage, a TEP predicate (which drops
// tuples), maybe-tuples (TEP < 1) under a count window, each first stage
// alone, aggregates of input attribute x0, a group key on id, a top-k whose
// partials prune rows, and each first stage followed by top-k; and over a
// relation whose rows name two instances.
func TestQueryMatchesSerialPlan(t *testing.T) {
	plans := []struct {
		label string
		plan  map[string]any
		// premise, when set, checks the answer shows what the plan is for.
		premise func(wire.QueryResponse) bool
	}{
		{"no stage", map[string]any{}, nil},
		{"predicate", map[string]any{"predicate": queryPred}, nil},
		{"maybe tuples", map[string]any{"predicate": maybePred}, func(r wire.QueryResponse) bool {
			return anyValue(r, "y", func(v wire.QueryValue) bool { return *v.TEP < 1 })
		}},
		{"window", map[string]any{"window": queryWin}, nil},
		{"count window over maybe tuples", map[string]any{"predicate": maybePred, "window": countWin}, func(r wire.QueryResponse) bool {
			return anyValue(r, "count", func(v wire.QueryValue) bool { return v.Bounded.Lo < v.Bounded.Hi })
		}},
		{"group-by", map[string]any{"predicate": queryPred, "group_by": queryGroupBy}, nil},
		{"group-by on id", map[string]any{"predicate": maybePred, "group_by": idGroupBy}, nil},
		{"top-k", map[string]any{"topk": map[string]any{"k": 3, "by": "y", "desc": true}}, nil},
		{"pruning top-k", map[string]any{"topk": pruningTopK}, func(r wire.QueryResponse) bool {
			// Rows certainly outside the top k are the ones partials prunes.
			return len(r.Rows) < queryRelRows
		}},
		{"groupby_topk", map[string]any{"group_by": queryGroupBy, "topk": map[string]any{"k": 2, "by": "avg_y", "desc": true}}, nil},
		{"window_topk", map[string]any{"predicate": queryPred, "window": queryWin, "topk": map[string]any{"k": 2, "by": "avg_y"}}, nil},
	}
	for _, workers := range []int{1, 2, 4} {
		s, ts := newTestServer(t, Config{Workers: workers})
		name := registerSmooth(t, ts.URL)
		other := registerSmoothAs(t, ts.URL, "smooth-b", 78)
		mixed := queryRows(queryRelRows, 3)
		for i, row := range mixed {
			if i%3 != 1 {
				row["udf"] = other
			}
		}
		for _, rel := range []struct {
			label string
			rows  []map[string]any
			udfs  []string // the instances the rows name
		}{{"one instance", queryRows(queryRelRows, 3), []string{name}}, {"two instances", mixed, []string{name, other}}} {
			for _, p := range plans {
				label := fmt.Sprintf("%d workers, %s, %s", workers, rel.label, p.label)
				body := map[string]any{"udf": name, "seed": 13, "rows": rel.rows}
				for k, v := range p.plan {
					body[k] = v
				}
				want := serialQuery(t, s, requestOf[wire.QueryRequest](t, body))
				resp, got := postJSON(t, ts.URL+"/v1/query", body)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("%s: %d %s", label, resp.StatusCode, got)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s: /v1/query diverged from the serial plan:\n%s\nvs\n%s", label, got, want)
				}
				var answer wire.QueryResponse
				if err := json.Unmarshal(got, &answer); err != nil {
					t.Fatal(err)
				}
				if p.premise != nil && !p.premise(answer) {
					t.Fatalf("%s: the answer does not show what the plan tests:\n%s", label, got)
				}
				// The header names each instance with its model seq, in name order.
				var pairs []string
				for _, u := range slices.Sorted(slices.Values(rel.udfs)) {
					e, _ := s.reg.Get(u)
					pairs = append(pairs, fmt.Sprintf("%s:%d", u, e.Seq()))
				}
				if seqs, want := resp.Header.Get(wire.HeaderQuerySeqs), strings.Join(pairs, ","); seqs != want {
					t.Fatalf("%s: %s header %q, want %q", label, wire.HeaderQuerySeqs, seqs, want)
				}
			}
		}
	}
}

// anyValue reports whether some answer row's named attribute satisfies ok.
func anyValue(r wire.QueryResponse, name string, ok func(wire.QueryValue) bool) bool {
	for _, row := range r.Rows {
		for _, v := range row {
			if v.Name == name && ok(v) {
				return true
			}
		}
	}
	return false
}

// tuplePartials is the reference for POST /v1/query/partials: the
// per-instance half of a query computed the tuple way, as the end-to-end
// benchmark's ladder replays it — InputSpec.Tuple and With("g") per row,
// pool.Apply at the rows' global ordinals, then PartialItemOf,
// GroupPartialsOf, or RankKeyOf and encodeQueryTuple over the survivors.
// It returns the response body, or the error the request must fail with.
func tuplePartials(t *testing.T, s *Server, req wire.QueryPartialsRequest) ([]byte, error) {
	t.Helper()
	e, ok := s.reg.Get(req.UDF)
	if !ok {
		t.Fatalf("no UDF %q", req.UDF)
	}
	st, err := stagesOf(req.Predicate, req.Window, req.GroupBy, req.TopK)
	if err != nil {
		t.Fatal(err)
	}
	tuples := make([]*query.Tuple, len(req.Rows))
	ords := make([]int64, len(req.Rows))
	for i, row := range req.Rows {
		tu, err := row.Input.Tuple(row.Ord)
		if err != nil {
			t.Fatal(err)
		}
		tuples[i] = tu.With("g", query.Str(row.Group))
		ords[i] = row.Ord
	}
	survivors, dropped := applyFrozen(t, e, s.cfg.Workers, tuples,
		exec.Options{Seed: req.Seed, Ords: ords, Predicate: st.pred, KeepEnvelope: true})
	survOrds := make([]int64, len(survivors))
	for i, tu := range survivors {
		survOrds[i] = tu.MustGet("id").I
	}
	resp := wire.QueryPartials{UDF: req.UDF, ModelSeq: e.Seq(), Dropped: dropped}
	switch {
	case st.window != nil:
		for i, tu := range survivors {
			pr := wire.PartialRow{Ord: survOrds[i]}
			for _, agg := range st.window.Aggs {
				it, err := query.PartialItemOf(tu, agg, survOrds[i])
				if err != nil {
					return nil, fmt.Errorf("window item for tuple %d: %w", survOrds[i], err)
				}
				pr.Items = append(pr.Items, wire.ItemOf(it))
			}
			resp.Rows = append(resp.Rows, pr)
		}
	case st.groupBy != nil:
		groups, err := query.GroupPartialsOf(survivors, survOrds, *st.groupBy)
		if err != nil {
			return nil, err
		}
		for _, gp := range groups {
			g, err := wire.GroupPartialOf(gp)
			if err != nil {
				t.Fatal(err)
			}
			resp.Groups = append(resp.Groups, g)
		}
	case st.topK != nil:
		keys := make([]query.RankKey, len(survivors))
		for i, tu := range survivors {
			if keys[i], err = query.RankKeyOf(tu, *st.topK, survOrds[i]); err != nil {
				return nil, fmt.Errorf("rank key for tuple %d: %w", survOrds[i], err)
			}
		}
		certAbove := query.CertAbove(keys)
		for i, tu := range survivors {
			rk := wire.RankKeyOf(keys[i])
			pr := wire.PartialRow{Ord: survOrds[i], Rank: &rk}
			if st.topK.K <= 0 || certAbove[i] < st.topK.K {
				if pr.Row, err = encodeQueryTuple(tu, e.cfg.Eps); err != nil {
					t.Fatal(err)
				}
			}
			resp.Rows = append(resp.Rows, pr)
		}
	default:
		for i, tu := range survivors {
			row, err := encodeQueryTuple(tu, e.cfg.Eps)
			if err != nil {
				t.Fatal(err)
			}
			resp.Rows = append(resp.Rows, wire.PartialRow{Ord: survOrds[i], Row: row})
		}
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), nil
}

// TestQueryPartialsMatchTuplePath holds the bytes of POST
// /v1/query/partials, and the text of its stage errors, to partials built
// the tuple way (tuplePartials) for every stage, at 1 and 4 workers, over
// sparse global ordinals.
func TestQueryPartialsMatchTuplePath(t *testing.T) {
	missing := []map[string]any{{"kind": "avg", "attr": "nope"}}
	plans := []struct {
		label string
		plan  map[string]any
	}{
		{"no stage", map[string]any{}},
		{"maybe tuples", map[string]any{"predicate": maybePred}},
		{"window", map[string]any{"predicate": queryPred, "window": queryWin}},
		{"count window", map[string]any{"predicate": maybePred, "window": countWin}},
		{"group-by", map[string]any{"predicate": maybePred, "group_by": queryGroupBy}},
		{"group-by on id", map[string]any{"group_by": idGroupBy}},
		{"top-k", map[string]any{"topk": pruningTopK}},
		{"top-k of maybe tuples", map[string]any{"predicate": maybePred, "topk": map[string]any{"k": 2, "by": "y", "desc": true}}},
		{"top-k of all", map[string]any{"topk": map[string]any{"k": 0, "by": "x0", "desc": true}}},
		{"window item error", map[string]any{"window": map[string]any{"size": 2, "aggs": missing}}},
		{"group key error", map[string]any{"group_by": map[string]any{"keys": []string{"x0"}, "aggs": missing}}},
		{"group item error", map[string]any{"group_by": map[string]any{"keys": []string{"g"}, "aggs": missing}}},
		{"group spec error", map[string]any{"group_by": map[string]any{"keys": []string{"g", "g"}, "aggs": missing}}},
		{"rank key error", map[string]any{"topk": map[string]any{"k": 2, "by": "nope"}}},
	}
	ords := []int64{1, 2, 4, 7, 8, 9, 12, 15, 16, 20, 21, 25}
	for _, workers := range []int{1, 4} {
		s, ts := newTestServer(t, Config{Workers: workers})
		name := registerSmooth(t, ts.URL)
		pruned := false
		for _, p := range plans {
			label := fmt.Sprintf("%d workers, %s", workers, p.label)
			body := map[string]any{"udf": name, "seed": 17, "rows": partialRows(ords)}
			for k, v := range p.plan {
				body[k] = v
			}
			want, wantErr := tuplePartials(t, s, requestOf[wire.QueryPartialsRequest](t, body))
			resp, got := postJSON(t, ts.URL+"/v1/query/partials", body)
			if wantErr != nil {
				var env wire.ErrorEnvelope
				if err := json.Unmarshal(got, &env); err != nil || resp.StatusCode != http.StatusInternalServerError || env.Error.Message != wantErr.Error() {
					t.Fatalf("%s: %d %s, want 500 with %q", label, resp.StatusCode, got, wantErr)
				}
				continue
			}
			if resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
				t.Fatalf("%s: partials diverged from the tuple path (%d):\n%s\nvs\n%s", label, resp.StatusCode, got, want)
			}
			var qp wire.QueryPartials
			if err := json.Unmarshal(got, &qp); err != nil {
				t.Fatal(err)
			}
			for _, pr := range qp.Rows {
				pruned = pruned || (pr.Rank != nil && pr.Row == nil)
			}
		}
		if !pruned {
			t.Fatalf("%d workers: no top-k partials pruned a row", workers)
		}
	}
}

// requestOf round-trips a JSON body into the request type a handler
// decodes.
func requestOf[R any](t *testing.T, body map[string]any) R {
	t.Helper()
	var req R
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &req); err != nil {
		t.Fatal(err)
	}
	return req
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
