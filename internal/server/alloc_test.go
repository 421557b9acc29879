package server

import (
	"bytes"
	"encoding/json"
	"fmt"
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

// replayBody is a request body that can be rewound to the same payload.
type replayBody struct{ bytes.Reader }

func (*replayBody) Close() error { return nil }

// handlerAllocs returns the heap allocations of one request through
// Server.Handler, averaged over runs, after checking the request answers
// 200 with a non-empty body.
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
	return testing.AllocsPerRun(runs, serve)
}

// Allocation ceilings of the per-tuple serving paths, measured through
// Server.Handler on the smooth 2-D UDF: one frozen eval, and the per-tuple
// cost of a frozen and of a learning stream (the difference between a long
// and a short stream, so the per-request costs cancel; a repeated learning
// stream adds no training points, so its count is steady). The learning
// stream sits at its measured 2.0, whole on every run in both builds. The
// frozen eval measures 11, and 11 to 13 under the race detector, which
// drops pooled eval bodies at random; its ceiling is 13. The frozen stream
// sits one above its measured 3.8 (docs/performance.md, "One reused input
// vector").
const (
	maxFrozenEvalAllocs        = 13
	maxFrozenStreamTupleAllocs = 5
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
