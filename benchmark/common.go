package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"olgapro/client"
	"olgapro/internal/core"
	"olgapro/internal/server/wire"
)

// repeatSetup runs setup n times (once when tracing), timing each from
// boot to the first answered request at reference host speed, closes all
// but the last, and records the median as setup_s.
func repeatSetup[E interface{ close() }](rc *runCtx, n int, setup func() (E, error)) (E, error) {
	if rc.trace {
		n = 1
	}
	var env E
	var secs []float64
	var ks []int
	for i := 0; i < n; i++ {
		if i > 0 {
			env.close()
		}
		var err error
		var start time.Time
		k := rc.ref.slice(func() {
			start = time.Now()
			env, err = setup()
			secs = append(secs, time.Since(start).Seconds())
		})
		if err != nil {
			return env, fmt.Errorf("set-up %d: %w", i, err)
		}
		ks = append(ks, k)
	}
	times := make([]float64, n)
	for i, k := range ks {
		times[i] = secs[i] * rc.ref.factor(k)
	}
	logf("  set-up at reference speed: %s s (median of %d)", fmtList(times, 3), n)
	if !rc.trace {
		rc.set("setup_s", median(times))
	}
	return env, nil
}

func fmtList(xs []float64, prec int) string {
	var b bytes.Buffer
	for i, x := range xs {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%.*f", prec, x)
	}
	return b.String()
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// measure runs the timed traffic, then records heap_retained_mb once the
// traffic's per-request samples, which are the benchmark's memory and not
// the service's, are unreachable.
func (rc *runCtx) measure(traffic func()) {
	traffic()
	rc.set("heap_retained_mb", retainedMB())
}

// retainedMB is the live heap after a full collection.
func retainedMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func hashBytes(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// post sends one request through the public client and returns the
// response body; any status other than 200 is an error.
func post(ctx context.Context, cl *client.Client, path string, body []byte, ct string) ([]byte, error) {
	resp, err := cl.Do(ctx, http.MethodPost, path, nil, body, ct)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST %s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}

// firstAnswers remembers the first answer to each request; every later
// answer to the same request must be byte-identical to it.
type firstAnswers struct {
	hash []atomic.Uint64 // hash | 1 of the first answer; 0 before it

	mu     sync.Mutex
	bodies [][]byte // the first answers to the first len(bodies) requests
}

func newFirstAnswers(n, keep int) *firstAnswers {
	return &firstAnswers{hash: make([]atomic.Uint64, n), bodies: make([][]byte, keep)}
}

// record checks body as an answer to request k. It reports whether body is
// the first answer, and fails when an earlier answer differs from it.
func (f *firstAnswers) record(k int, body []byte) (bool, error) {
	h := hashBytes(body) | 1
	if f.hash[k].CompareAndSwap(0, h) {
		if k < len(f.bodies) {
			f.mu.Lock()
			f.bodies[k] = body
			f.mu.Unlock()
		}
		return true, nil
	}
	if f.hash[k].Load() != h {
		return false, fmt.Errorf("answer to request %d differs from its first answer", k)
	}
	return false, nil
}

// normalInput is a d-dimensional input of independent Gaussians.
func normalInput(mu []float64, sigma float64) client.InputSpec {
	in := make(client.InputSpec, len(mu))
	for j, m := range mu {
		in[j] = client.DistSpec{Type: "normal", Mu: m, Sigma: sigma}
	}
	return in
}

// smoothInput draws a poly/smooth2d input: means in [0.3, 0.7], σ = 0.15.
func smoothInput(rng *rand.Rand) client.InputSpec {
	return normalInput([]float64{0.3 + 0.4*rng.Float64(), 0.3 + 0.4*rng.Float64()}, 0.15)
}

// warmup is the fixed warm-up set of the poly/smooth2d instances. It does
// not depend on the seed, so every seed serves the same model and the seed
// varies only the traffic.
func smoothWarmup() []client.InputSpec {
	rng := rand.New(rand.NewSource(5))
	out := make([]client.InputSpec, 8)
	for i := range out {
		out[i] = smoothInput(rng)
	}
	return out
}

// udfStats returns the named instance's /v1/stats record.
func udfStats(ctx context.Context, cl *client.Client, name string) (client.UDFStats, error) {
	st, err := cl.Stats(ctx)
	if err != nil {
		return client.UDFStats{}, err
	}
	for _, u := range st.UDFs {
		if u.Name == name {
			return u, nil
		}
	}
	return client.UDFStats{}, fmt.Errorf("stats: no UDF %q", name)
}

// udfInfo returns the named instance's GET /v1/udfs entry.
func udfInfo(ctx context.Context, cl *client.Client, name string) (client.UDFInfo, error) {
	list, err := cl.ListUDFs(ctx)
	if err != nil {
		return client.UDFInfo{}, err
	}
	for _, u := range list.UDFs {
		if u.Name == name {
			return u, nil
		}
	}
	return client.UDFInfo{}, fmt.Errorf("udfs: no UDF %q", name)
}

// checkResult checks that one evaluated tuple is well formed and counts it
// toward the (ε, δ) check.
func checkResult(r *wire.EvalResult, b *budget) error {
	if r.SupportHash == "" || r.Samples <= 0 {
		return errors.New("result has no output distribution")
	}
	if !(r.Bound >= 0) || math.IsInf(r.Bound, 0) || !(r.Eps > 0) {
		return fmt.Errorf("result bound %v or eps %v malformed", r.Bound, r.Eps)
	}
	b.total.Add(1)
	if r.Bound <= r.Eps {
		b.met.Add(1)
	}
	return nil
}

// budget counts answers whose bound meets ε. The (ε, δ) contract is a rate:
// answers meet ε with probability at least 1 − δ. That holds for frozen
// answers too, which cannot add training points and so may miss ε on an
// input the model has not learned around.
type budget struct{ met, total atomic.Int64 }

func (b *budget) check(delta float64) error {
	met, total := b.met.Load(), b.total.Load()
	if total == 0 {
		return errors.New("no answers to check against ε")
	}
	if rate := float64(met) / float64(total); rate < 1-delta {
		return fmt.Errorf("%d of %d answers met ε: rate %.4f < 1 − δ = %.4f", met, total, rate, 1-delta)
	}
	return nil
}

// resultOf is the serving layer's flattening of a core.Output into its
// wire form, rebuilt here from the exported wire type so the ladder can
// replay the encode step and compare bytes with what was served.
func resultOf(seq int64, out *core.Output, eps float64) wire.EvalResult {
	r := wire.EvalResult{
		Seq:         seq,
		Engine:      out.Engine.String(),
		Eps:         eps,
		Bound:       out.Bound,
		BoundGP:     out.BoundGP,
		BoundMC:     out.BoundMC,
		MetBudget:   out.MetBudget,
		Samples:     out.Samples,
		UDFCalls:    out.UDFCalls,
		PointsAdded: out.PointsAdded,
		LocalPoints: out.LocalPoints,
		Filtered:    out.Filtered,
	}
	if out.Dist != nil {
		r.Mean = out.Dist.Mean()
		r.Quantiles = map[string]float64{
			"p05": out.Dist.Quantile(0.05),
			"p25": out.Dist.Quantile(0.25),
			"p50": out.Dist.Quantile(0.50),
			"p75": out.Dist.Quantile(0.75),
			"p95": out.Dist.Quantile(0.95),
		}
		r.SupportHash = supportHash(out.Dist.Values())
	}
	return r
}

// supportHash is FNV-64a over the output support's float64 bits, the digest
// the server puts in support_hash.
func supportHash(vals []float64) string {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range vals {
		bits := math.Float64bits(v)
		for i := range b {
			b[i] = byte(bits >> (8 * i))
		}
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// encodeJSON is the serving layer's response encoding: one JSON document
// and a newline.
func encodeJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

// decodeStrict is the serving layer's request decoding: unknown fields and
// trailing data are errors.
func decodeStrict(b []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data after JSON document")
	}
	return nil
}

// openStream runs one NDJSON stream and returns its whole answer.
func openStream(ctx context.Context, cl *client.Client, name string, q url.Values, body []byte) ([]byte, error) {
	rc, err := cl.OpenStream(ctx, name, q, body)
	if err != nil {
		return nil, err
	}
	defer rc.Close()
	return io.ReadAll(rc)
}

// checkStream parses an NDJSON answer of want result lines, checking each
// result and counting it toward b. An error line is an error.
func checkStream(body []byte, want int, b *budget) ([]wire.StreamResult, error) {
	var out []wire.StreamResult
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		var r wire.StreamResult
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("line %d: %w", len(out), err)
		}
		if r.Error != "" {
			return nil, fmt.Errorf("line %d: %s (%s)", len(out), r.Error, r.ErrorCode)
		}
		if err := checkResult(&r.EvalResult, b); err != nil {
			return nil, fmt.Errorf("line %d: %w", len(out), err)
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) != want {
		return nil, fmt.Errorf("answered %d of %d tuples", len(out), want)
	}
	return out, nil
}

// learnStream learns want inputs in one stream and checks the answers.
func learnStream(ctx context.Context, cl *client.Client, name string, body []byte, seed int64, want int, b *budget) error {
	raw, err := openStream(ctx, cl, name, url.Values{"seed": {strconv.FormatInt(seed, 10)}}, body)
	if err != nil {
		return err
	}
	if _, err := checkStream(raw, want, b); err != nil {
		return fmt.Errorf("learn stream: %w", err)
	}
	return nil
}
