package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"olgapro/client"
	"olgapro/internal/server"
	"olgapro/internal/server/wire"
)

// registerVia registers one smooth-2D UDF instance deterministically: the
// same call against two fleets leaves both with bit-identical model state.
func registerVia(t *testing.T, cl *client.Client, name string) {
	t.Helper()
	if _, err := cl.Register(context.Background(), client.RegisterRequest{
		Name: name, UDF: "poly/smooth2d", Eps: 0.2, Delta: 0.1,
		Warmup: fleetInputs(8, 41), WarmupSeed: 7,
	}); err != nil {
		t.Fatalf("register %s: %v", name, err)
	}
}

// scatterPlans is the plan-shape matrix the scatter tests sweep: every
// first-stage kind (none, window, group-by, top-k) plus router-side
// downstream stages and a TEP predicate (which drops tuples, so global
// ordinals have gaps).
func scatterPlans() map[string]map[string]any {
	return map[string]map[string]any{
		"bare": {},
		"predicate": {
			"predicate": map[string]any{"a": 0.0, "b": 1.2, "theta": 0.05},
		},
		"groupby_topk": {
			"group_by": map[string]any{
				"keys": []string{"g"},
				"aggs": []map[string]any{
					{"kind": "count"}, {"kind": "sum", "attr": "y"}, {"kind": "avg", "attr": "y"},
					{"kind": "min", "attr": "y"}, {"kind": "max", "attr": "y"},
				},
			},
			"topk": map[string]any{"k": 2, "by": "avg_y", "desc": true},
		},
		"window_topk": {
			"window": map[string]any{
				"size": 4, "step": 2,
				"aggs": []map[string]any{{"kind": "count"}, {"kind": "avg", "attr": "y"}},
			},
			"topk": map[string]any{"k": 2, "by": "avg_y", "desc": true},
		},
		"topk_predicate": {
			"predicate": map[string]any{"a": 0.0, "b": 1.2, "theta": 0.05},
			"topk":      map[string]any{"k": 3, "by": "y", "desc": true},
		},
	}
}

// scatterRows builds n deterministic rows, labelled round-robin into three
// groups, each optionally naming its own UDF instance from names.
func scatterRows(n int, names []string) []map[string]any {
	inputs := fleetInputs(n, 42)
	rows := make([]map[string]any, n)
	for i := range rows {
		rows[i] = map[string]any{
			"input": inputs[i],
			"group": string(rune('a' + i%3)),
		}
		if len(names) > 0 {
			rows[i]["udf"] = names[i%len(names)]
		}
	}
	return rows
}

// TestRouterScatterMatchesForward pins the scatter-gather path to the
// serial reference: the same single-instance plan answered by forwarding
// the whole request to a shard's /v1/query must come back byte-identical
// when the rows name their UDF and the router decomposes, scatters, and
// merges partial states instead.
func TestRouterScatterMatchesForward(t *testing.T) {
	_, ts := bootShard(t, server.Config{Workers: 2})
	rt, err := NewRouter(Config{Shards: []string{ts.URL}, Replicas: 1, Cooldown: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	tsR := newRouterServer(t, rt)
	cl := client.New(tsR.URL)
	ctx := context.Background()
	registerVia(t, cl, "u0")

	for label, plan := range scatterPlans() {
		fwd := map[string]any{"udf": "u0", "seed": 21, "rows": scatterRows(10, nil)}
		scat := map[string]any{"udf": "u0", "seed": 21, "rows": scatterRows(10, []string{"u0"})}
		for k, v := range plan {
			fwd[k] = v
			scat[k] = v
		}
		want, err := cl.Query(ctx, fwd)
		if err != nil {
			t.Fatalf("%s: forwarded query: %v", label, err)
		}
		got, err := cl.Query(ctx, scat)
		if err != nil {
			t.Fatalf("%s: scattered query: %v", label, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: scatter-gather diverged from forwarded plan:\n%s\nvs\n%s", label, got, want)
		}
	}
}

// TestRouterScatterAcrossShardsMatchesSolo is the distribution-invariance
// property at fleet scale: one plan over three UDF instances answered by a
// three-shard fleet (each instance owned by a different shard) must be
// byte-identical to the same plan on a single-shard fleet holding all
// three.
func TestRouterScatterAcrossShardsMatchesSolo(t *testing.T) {
	_, tsA := bootShard(t, server.Config{Workers: 2})
	_, tsB := bootShard(t, server.Config{Workers: 2})
	_, tsC := bootShard(t, server.Config{Workers: 2})
	_, tsD := bootShard(t, server.Config{Workers: 2})
	addrs := []string{tsA.URL, tsB.URL, tsC.URL}
	ring, err := NewRing(addrs, 0)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{
		ownedName(t, ring, tsA.URL),
		ownedName(t, ring, tsB.URL),
		ownedName(t, ring, tsC.URL),
	}

	rt3, err := NewRouter(Config{Shards: addrs, Replicas: 1, Cooldown: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer rt3.Close()
	rt1, err := NewRouter(Config{Shards: []string{tsD.URL}, Replicas: 1, Cooldown: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer rt1.Close()
	cl3 := client.New(newRouterServer(t, rt3).URL)
	cl1 := client.New(newRouterServer(t, rt1).URL)
	for _, name := range names {
		registerVia(t, cl3, name)
		registerVia(t, cl1, name)
	}

	ctx := context.Background()
	for label, plan := range scatterPlans() {
		req := map[string]any{"seed": 9, "rows": scatterRows(12, names)}
		for k, v := range plan {
			req[k] = v
		}
		want, err := cl1.Query(ctx, req)
		if err != nil {
			t.Fatalf("%s: solo fleet query: %v", label, err)
		}
		got, err := cl3.Query(ctx, req)
		if err != nil {
			t.Fatalf("%s: three-shard query: %v", label, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: three-shard answer diverged from solo fleet:\n%s\nvs\n%s", label, got, want)
		}
	}
}

// TestRouterScatterRetriesDeadShard kills the owning shard between two
// scattered queries: the router's per-shard retry must fail over to the
// caught-up replica and still produce the same bytes.
func TestRouterScatterRetriesDeadShard(t *testing.T) {
	sA, tsA := bootShard(t, server.Config{Workers: 2, RequestTimeout: 2 * time.Second})
	sB, tsB := bootShard(t, server.Config{Workers: 2, RequestTimeout: 2 * time.Second})
	_ = sA
	addrs := []string{tsA.URL, tsB.URL}
	ring, err := NewRing(addrs, 0)
	if err != nil {
		t.Fatal(err)
	}
	name := ownedName(t, ring, tsA.URL)

	rt, err := NewRouter(Config{Shards: addrs, Replicas: 2, Cooldown: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	cl := client.New(newRouterServer(t, rt).URL)
	ctx := context.Background()
	registerVia(t, cl, name)

	clA := client.New(tsA.URL)
	listA, err := clA.ListUDFs(ctx)
	if err != nil || len(listA.UDFs) != 1 {
		t.Fatalf("owner udfs: %+v, %v", listA, err)
	}
	repl, err := StartReplicator(ReplicatorConfig{
		Self: tsB.URL, Shards: addrs, Registry: sB.Registry(),
		Replicas: 2, Interval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer repl.Close()
	clB := client.New(tsB.URL)
	deadline := time.Now().Add(15 * time.Second)
	for {
		listB, err := clB.ListUDFs(ctx)
		if err == nil && len(listB.UDFs) == 1 && listB.UDFs[0].ModelSeq >= listA.UDFs[0].ModelSeq {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica did not converge: %+v", listB)
		}
		time.Sleep(50 * time.Millisecond)
	}

	req := map[string]any{"seed": 3, "rows": scatterRows(8, []string{name}),
		"group_by": map[string]any{
			"keys": []string{"g"},
			"aggs": []map[string]any{{"kind": "count"}, {"kind": "avg", "attr": "y"}},
		}}
	want, err := cl.Query(ctx, req)
	if err != nil {
		t.Fatalf("query before kill: %v", err)
	}
	tsA.Close()
	got, err := cl.Query(ctx, req)
	if err != nil {
		t.Fatalf("query after owner death: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("failover scatter diverged:\n%s\nvs\n%s", got, want)
	}
}

// TestShardMultiInstanceQueryMatchesRouter asserts a shard answers a
// relation spanning two instances it hosts exactly as a two-shard router
// answers the same rows with each instance on its own shard.
func TestShardMultiInstanceQueryMatchesRouter(t *testing.T) {
	_, tsA := bootShard(t, server.Config{Workers: 2})
	_, tsB := bootShard(t, server.Config{Workers: 2})
	_, tsSolo := bootShard(t, server.Config{Workers: 2})
	addrs := []string{tsA.URL, tsB.URL}
	ring, err := NewRing(addrs, 0)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{ownedName(t, ring, tsA.URL), ownedName(t, ring, tsB.URL)}
	rt, err := NewRouter(Config{Shards: addrs, Replicas: 1, Cooldown: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	clRouter := client.New(newRouterServer(t, rt).URL)
	clSolo := client.New(tsSolo.URL)
	for _, name := range names {
		registerVia(t, clRouter, name)
		registerVia(t, clSolo, name)
	}

	ctx := context.Background()
	for label, plan := range scatterPlans() {
		req := map[string]any{"seed": 5, "rows": scatterRows(12, names)}
		for k, v := range plan {
			req[k] = v
		}
		want, err := clRouter.Query(ctx, req)
		if err != nil {
			t.Fatalf("%s: router query: %v", label, err)
		}
		got, err := clSolo.Query(ctx, req)
		if err != nil {
			t.Fatalf("%s: shard query: %v", label, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: two-instance shard answer diverged from the router:\n%s\nvs\n%s", label, got, want)
		}
	}
}

// fakeShard serves POST /v1/query/partials with a canned body and records
// the query string of every call.
func fakeShard(t *testing.T, body string) (*httptest.Server, func() []string) {
	t.Helper()
	var mu sync.Mutex
	var queries []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/query/partials" {
			http.NotFound(w, r)
			return
		}
		io.Copy(io.Discard, r.Body)
		mu.Lock()
		queries = append(queries, r.URL.RawQuery)
		mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, body)
	}))
	t.Cleanup(ts.Close)
	return ts, func() []string {
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), queries...)
	}
}

// postQuery posts a raw /v1/query body to a router.
func postQuery(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// TestRouterQueryForwardsTimeout asserts the router passes ?timeout_ms= on
// to every partials call, whether the rows use the request-level udf or
// name their own.
func TestRouterQueryForwardsTimeout(t *testing.T) {
	shard, calls := fakeShard(t, `{"udf":"u0","model_seq":1,"dropped":1}`)
	rt, err := NewRouter(Config{Shards: []string{shard.URL}, Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	url := newRouterServer(t, rt).URL + "/v1/query?timeout_ms=50"
	input := `[{"type":"normal","mu":0.5,"sigma":0.1},{"type":"normal","mu":0.5,"sigma":0.1}]`
	for label, body := range map[string]string{
		"request udf": `{"udf":"u0","rows":[{"input":` + input + `}]}`,
		"row udfs":    `{"rows":[{"input":` + input + `,"udf":"u0"},{"input":` + input + `,"udf":"u1"}]}`,
	} {
		before := len(calls())
		resp, out := postQuery(t, url, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d %s", label, resp.StatusCode, out)
		}
		got := calls()[before:]
		if len(got) == 0 {
			t.Fatalf("%s: no partials call reached the shard", label)
		}
		for _, q := range got {
			if q != "timeout_ms=50" {
				t.Fatalf("%s: partials call carried query %q, want timeout_ms=50", label, q)
			}
		}
	}
}

// TestRouterQueryHostilePartials asserts partial state that merges to an
// unencodable answer is refused with a 500 internal envelope, never a 200
// with an empty body.
func TestRouterQueryHostilePartials(t *testing.T) {
	input := `[{"type":"normal","mu":0.5,"sigma":0.1},{"type":"normal","mu":0.5,"sigma":0.1}]`
	for label, c := range map[string]struct{ partials, query string }{
		// A group whose avg aggregate observed no tuple finishes to NaN.
		"avg n=0": {
			`{"udf":"u0","model_seq":1,"dropped":0,"groups":[{"key":"s:a","vals":[{"name":"","kind":"string","str":"a"}],"ord":0,` +
				`"aggs":[{"kind":"avg","n":0,"sure":0,"lo":0,"sure_cap":0,"all_cap":0}]}]}`,
			`{"udf":"u0","rows":[{"input":` + input + `,"group":"a"}],"group_by":{"keys":["g"],"aggs":[{"kind":"avg","attr":"y"}]}}`,
		},
		// Two finite window items whose sum overflows to +Inf.
		"window sum overflow": {
			`{"udf":"u0","model_seq":1,"dropped":0,"rows":[{"ord":0,"items":[{"ord":0,"lo":1e308,"hi":1e308,"sure":true}]},` +
				`{"ord":1,"items":[{"ord":1,"lo":1e308,"hi":1e308,"sure":true}]}]}`,
			`{"udf":"u0","rows":[{"input":` + input + `},{"input":` + input + `}],"window":{"size":2,"aggs":[{"kind":"sum","attr":"y"}]}}`,
		},
	} {
		shard, _ := fakeShard(t, c.partials)
		rt, err := NewRouter(Config{Shards: []string{shard.URL}, Replicas: 1})
		if err != nil {
			t.Fatal(err)
		}
		resp, out := postQuery(t, newRouterServer(t, rt).URL+"/v1/query", c.query)
		rt.Close()
		var env wire.ErrorEnvelope
		if resp.StatusCode != http.StatusInternalServerError || json.Unmarshal(out, &env) != nil || env.Error.Code != wire.CodeInternal {
			t.Fatalf("%s: status %d body %q, want a 500 internal envelope", label, resp.StatusCode, out)
		}
	}
}

// newRouterServer serves one router over an HTTP test listener.
func newRouterServer(t *testing.T, rt *Router) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)
	return ts
}
