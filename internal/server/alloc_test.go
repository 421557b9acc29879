package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
)

// discardWriter is a ResponseWriter that keeps only the status and a byte
// count, so an allocation count through Server.Handler sees the server's
// own work and nothing of a client or a connection.
type discardWriter struct {
	h      http.Header
	status int
	n      int
}

func (w *discardWriter) Header() http.Header { return w.h }

func (w *discardWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	w.n += len(p)
	return len(p), nil
}

func (w *discardWriter) WriteHeader(status int) { w.status = status }

// EnableFullDuplex succeeds, as on a real connection: a stream asks for it
// once per request, and the error of a writer without it would be
// formatted through fmt's pooled printers, whose reuse the race detector
// randomizes.
func (w *discardWriter) EnableFullDuplex() error { return nil }

// replayBody is a request body that can be rewound to the same payload.
type replayBody struct{ bytes.Reader }

func (*replayBody) Close() error { return nil }

// handlerAllocs returns the fewest heap allocations one request through
// Server.Handler made in runs measured requests, after checking the
// request answers 200 with a non-empty body. A stray allocation (a pooled
// value the race detector dropped, or the runtime's own) only ever adds to
// a request's count, so the least count is the request's steady cost, and
// a per-item figure taken as the difference of two of them cannot be
// pushed up by one.
func handlerAllocs(t *testing.T, s *Server, target string, payload []byte, runs int) float64 {
	t.Helper()
	h := s.Handler()
	body := &replayBody{}
	req := httptest.NewRequest(http.MethodPost, target, body)
	w := &discardWriter{h: make(http.Header)}
	serve := func() {
		body.Reset(payload)
		w.status, w.n = 0, 0
		h.ServeHTTP(w, req)
	}
	serve()
	if w.status != http.StatusOK || w.n == 0 {
		t.Fatalf("%s: status %d, %d body bytes", target, w.status, w.n)
	}
	least := math.Inf(1)
	for range runs {
		least = min(least, testing.AllocsPerRun(1, serve))
	}
	return least
}

// Allocation ceilings of the per-tuple serving paths, measured through
// Server.Handler on the smooth 2-D UDF: one frozen eval, and the per-tuple
// cost of a frozen and of a learning stream (the difference between the
// least counts of a long and a short stream, so the per-request costs
// cancel; a repeated learning stream adds no training points, so its count
// is steady). Each ceiling is its measured least count, the same with and
// without the race detector: the frozen eval 10, the frozen stream 3.0 per
// tuple, since its items go through the executor themselves
// (docs/performance.md, "Reuse"), and the learning stream 2.0.
const (
	maxFrozenEvalAllocs        = 10
	maxFrozenStreamTupleAllocs = 3
	maxLearnStreamTupleAllocs  = 2
)

func TestFrozenServingAllocs(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	name := registerSmooth(t, ts.URL)

	evalBody, err := json.Marshal(map[string]any{"input": testInputs(1)[0], "seed": 7, "learn": false})
	if err != nil {
		t.Fatal(err)
	}
	evalAllocs := handlerAllocs(t, s, fmt.Sprintf("/v1/udfs/%s/eval", name), evalBody, 50)

	stream := func(n int) []byte {
		var buf bytes.Buffer
		for _, in := range testInputs(n) {
			b, err := json.Marshal(streamLine{Input: in})
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(b)
			buf.WriteByte('\n')
		}
		return buf.Bytes()
	}
	const short, long = 8, 40
	perTuple := func(target string) float64 {
		shortAllocs := handlerAllocs(t, s, target, stream(short), 10)
		longAllocs := handlerAllocs(t, s, target, stream(long), 10)
		return (longAllocs - shortAllocs) / (long - short)
	}
	frozenTuple := perTuple(fmt.Sprintf("/v1/udfs/%s/stream?learn=false&seed=3", name))
	learnTuple := perTuple(fmt.Sprintf("/v1/udfs/%s/stream?seed=3", name))

	t.Logf("frozen eval: %.1f allocs; frozen stream: %.1f allocs/tuple; learn stream: %.1f allocs/tuple",
		evalAllocs, frozenTuple, learnTuple)
	if evalAllocs > maxFrozenEvalAllocs {
		t.Errorf("frozen eval allocates %.1f times, ceiling %d", evalAllocs, maxFrozenEvalAllocs)
	}
	if frozenTuple > maxFrozenStreamTupleAllocs {
		t.Errorf("frozen stream allocates %.1f times per tuple, ceiling %d", frozenTuple, maxFrozenStreamTupleAllocs)
	}
	if learnTuple > maxLearnStreamTupleAllocs {
		t.Errorf("learn stream allocates %.1f times per tuple, ceiling %d", learnTuple, maxLearnStreamTupleAllocs)
	}
}

// maxPartialsRowAllocs is the allocation ceiling of one row of a group-by
// partials request (a TEP predicate, then count and avg per group) through
// Server.Handler: the difference between the least counts of a long and a
// short request, so the per-request costs cancel. It is the measured 6.4
// (6.4 to 6.5 under the race detector) rounded up to a whole allocation:
// the row's JSON decode, its two input distributions, and the growth of
// the workers' scratch and of the groups' item lists. The tuple path
// measured 43.8 per row here, building three tuples, an owned output and
// a truncated support copy per row.
const maxPartialsRowAllocs = 7

func TestQueryPartialsRowAllocs(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	name := registerSmooth(t, ts.URL)
	body := func(n int) []byte {
		ords := make([]int64, n)
		for i := range ords {
			ords[i] = int64(2 * i)
		}
		b, err := json.Marshal(map[string]any{
			"udf": name, "seed": 5, "rows": partialRows(ords), "predicate": queryPred,
			"group_by": map[string]any{"keys": []string{"g"},
				"aggs": []map[string]any{{"kind": "count"}, {"kind": "avg", "attr": "y"}}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	const short, long = 16, 80
	shortAllocs := handlerAllocs(t, s, "/v1/query/partials", body(short), 10)
	longAllocs := handlerAllocs(t, s, "/v1/query/partials", body(long), 10)
	perRow := (longAllocs - shortAllocs) / (long - short)
	t.Logf("group-by partials: %.1f allocs/row (%.0f at %d rows, %.0f at %d)", perRow, shortAllocs, short, longAllocs, long)
	if perRow > maxPartialsRowAllocs {
		t.Errorf("group-by partials allocate %.1f times per row, ceiling %d", perRow, maxPartialsRowAllocs)
	}
}
