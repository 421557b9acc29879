package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"testing"

	"olgapro/internal/server/wire"
)

// scatterShapedBody builds a /v1/query body the way the query_scatter
// benchmark builds one: n rows of two normal inputs (σ = 0.15) in 16
// groups, row i on instance names[i mod len(names)], a TEP filter, a
// group-by over the groups with count and mean, and the bounded top 4
// groups by mean.
func scatterShapedBody(t testing.TB, n int, names []string, seed int64) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	rows := make([]wire.QueryRow, n)
	for i := range rows {
		rows[i] = wire.QueryRow{
			Input: wire.InputSpec{
				{Type: "normal", Mu: 0.3 + 0.4*rng.Float64(), Sigma: 0.15},
				{Type: "normal", Mu: 0.3 + 0.4*rng.Float64(), Sigma: 0.15},
			},
			Group: fmt.Sprintf("g%02d", rng.Intn(16)),
			UDF:   names[i%len(names)],
		}
	}
	b, err := json.Marshal(wire.QueryRequest{
		Rows:      rows,
		Seed:      seed + 1,
		Predicate: &wire.PredicateSpec{A: 0.52, B: 5, Theta: 0.5},
		GroupBy: &wire.GroupBySpec{
			Keys: []string{"g"},
			Aggs: []wire.AggSpec{{Kind: "count"}, {Kind: "avg", Attr: "y"}},
		},
		TopK: &wire.TopKSpec{K: 4, By: "avg_y", Desc: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// emptyPartials answers every sub-plan with no rows and no groups.
func emptyPartials(_ context.Context, sub *wire.QueryPartialsRequest) (*wire.QueryPartials, error) {
	return &wire.QueryPartials{UDF: sub.UDF}, nil
}

// TestScatterBodiesTakeFastPath: the bodies the query_scatter benchmark
// sends take the fast path at the router, decoding to encoding/json's
// value, and every partials body the router builds from them, encoded as
// Router.handleQuery encodes it, takes the fast path at the shard.
func TestScatterBodiesTakeFastPath(t *testing.T) {
	names := []string{"u0", "u1", "u2"}
	for seed := range int64(3) {
		body := scatterShapedBody(t, 512, names, seed)
		var ref, req wire.QueryRequest
		if err := decodeStrict(bytes.NewReader(body), &ref); err != nil {
			t.Fatal(err)
		}
		if !wire.DecodeQueryRequest(body, &req, new(wire.QueryScratch)) {
			t.Fatalf("seed %d: the router's decode falls back on a benchmark-shaped body", seed)
		}
		if !sameQuery(&req, &ref) {
			t.Fatalf("seed %d: fast path %+v, encoding/json %+v", seed, req, ref)
		}
		fetch := func(ctx context.Context, sub *wire.QueryPartialsRequest) (*wire.QueryPartials, error) {
			b, err := json.Marshal(sub)
			if err != nil {
				return nil, err
			}
			var got, want wire.QueryPartialsRequest
			if err := decodeStrict(bytes.NewReader(b), &want); err != nil {
				return nil, err
			}
			if !wire.DecodeQueryPartialsRequest(b, &got, new(wire.QueryScratch)) || !samePartials(&got, &want) {
				t.Errorf("seed %d: the shard's decode of the %s partials body falls back or differs", seed, sub.UDF)
			}
			return emptyPartials(ctx, sub)
		}
		if _, _, err := RunQuery(context.Background(), &req, fetch); err != nil {
			t.Fatal(err)
		}
	}
}

// maxQueryRouterRowAllocs is the allocation ceiling of one row of a
// benchmark-shaped /v1/query through ServeQuery, as the router answers it,
// over a fetch that answers every sub-plan empty: the difference between
// the least counts of a long and a short request, so the per-request
// costs cancel. What is left per row is the decode, which allocates
// nothing, and the growth of the sub-plans' row arrays; it measures 0.03
// (6.0 with encoding/json decoding the body).
const maxQueryRouterRowAllocs = 1

func TestQueryRouterRowAllocs(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { ServeQuery(w, r, emptyPartials) })
	names := []string{"u0", "u1", "u2"}
	const short, long = 128, 512
	shortAllocs := handlerAllocs(t, h, "/v1/query", scatterShapedBody(t, short, names, 1), 10)
	longAllocs := handlerAllocs(t, h, "/v1/query", scatterShapedBody(t, long, names, 1), 10)
	perRow := (longAllocs - shortAllocs) / (long - short)
	t.Logf("router query decode: %.2f allocs/row (%.0f at %d rows, %.0f at %d)", perRow, shortAllocs, short, longAllocs, long)
	if perRow > maxQueryRouterRowAllocs {
		t.Errorf("router query decode allocates %.2f times per row, ceiling %d", perRow, maxQueryRouterRowAllocs)
	}
}
