package server

// Perf-trajectory benchmarks: every Benchmark_<name> here is one row
// <name> of the BENCH_*.json files (`make bench-json` selects them with
// -bench '^Benchmark_'). Their timings depend on host cores and
// scheduler, so server_* is exempt from the ns/op gate; allocs/op stays
// gated.

import (
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"olgapro/client"
)

// benchServer boots the olgaprod serving layer in-process (httptest) with a
// registered, warmed smooth UDF, for end-to-end request benchmarks through
// the real HTTP handler: JSON decode, admission, frozen-clone evaluation,
// JSON encode. All traffic goes through the public client package — the
// same surface the router and e2e gates use.
func benchServer(b *testing.B, workers int) (*client.Client, func()) {
	s, err := New(Config{Workers: workers, MaxInFlight: 512})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	cl := client.New(ts.URL)
	rng := rand.New(rand.NewSource(5))
	warmup := make([]client.InputSpec, 8)
	for i := range warmup {
		warmup[i] = client.InputSpec{
			{Type: "normal", Mu: 0.3 + 0.4*rng.Float64(), Sigma: 0.15},
			{Type: "normal", Mu: 0.3 + 0.4*rng.Float64(), Sigma: 0.15},
		}
	}
	if _, err := cl.Register(context.Background(), client.RegisterRequest{
		UDF: "poly/smooth2d", Name: "bench", Eps: 0.2, Delta: 0.1,
		Warmup: warmup, WarmupSeed: 3,
	}); err != nil {
		b.Fatalf("register: %v", err)
	}
	return cl, func() { ts.Close(); s.Close() }
}

// Benchmark_server_eval_rps measures single-tuple serving throughput: one
// op is one POST /eval round trip on the frozen (read) path. The request
// body is marshaled once outside the loop, so the measured work stays
// server-side.
func Benchmark_server_eval_rps(b *testing.B) {
	cl, stop := benchServer(b, 1)
	defer stop()
	learn := false
	req, _ := json.Marshal(client.EvalRequest{
		Input: client.InputSpec{
			{Type: "normal", Mu: 0.5, Sigma: 0.12},
			{Type: "normal", Mu: 0.5, Sigma: 0.12},
		},
		Seed: 11, Learn: &learn,
	})
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := cl.Do(ctx, http.MethodPost, "/v1/udfs/bench/eval", nil, req, "application/json")
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("eval: %d", resp.StatusCode)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "tuples/s")
}

// benchServerStream measures NDJSON stream serving: one op streams a
// 64-tuple table through the frozen exec fan-out at the given worker count.
func benchServerStream(b *testing.B, workers int) {
	const tuples = 64
	cl, stop := benchServer(b, workers)
	defer stop()
	rng := rand.New(rand.NewSource(21))
	inputs := make([]client.InputSpec, tuples)
	for i := range inputs {
		inputs[i] = client.InputSpec{
			{Type: "normal", Mu: 0.35 + 0.3*rng.Float64(), Sigma: 0.15},
			{Type: "normal", Mu: 0.35 + 0.3*rng.Float64(), Sigma: 0.15},
		}
	}
	payload, err := client.StreamBody(inputs)
	if err != nil {
		b.Fatal(err)
	}
	q := url.Values{"learn": {"false"}, "seed": {"17"}}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rc, err := cl.OpenStream(ctx, "bench", q, payload)
		if err != nil {
			b.Fatal(err)
		}
		n, _ := io.Copy(io.Discard, rc)
		rc.Close()
		if n == 0 {
			b.Fatal("stream: empty response")
		}
	}
	b.ReportMetric(float64(tuples*b.N)/b.Elapsed().Seconds(), "tuples/s")
}

func Benchmark_server_stream_rps_w1(b *testing.B) { benchServerStream(b, 1) }
func Benchmark_server_stream_rps_w4(b *testing.B) { benchServerStream(b, 4) }
