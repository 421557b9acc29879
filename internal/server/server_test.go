package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"olgapro/internal/core"
	"olgapro/internal/exec"
	"olgapro/internal/server/wire"
)

// newTestServer boots a server (optionally with a snapshot dir) and returns
// it with its HTTP test harness.
func newTestServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postJSON(t testing.TB, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
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

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp
}

// registerSmooth registers the smooth analytic UDF with generous ε and a
// warm-up batch, returning its instance name.
func registerSmooth(t *testing.T, baseURL string) string {
	t.Helper()
	return registerSmoothAs(t, baseURL, "", 77)
}

// registerSmoothAs registers registerSmooth's UDF under name (the default
// name when empty), warmed up under warmupSeed.
func registerSmoothAs(t testing.TB, baseURL, name string, warmupSeed int64) string {
	t.Helper()
	warmup := make([]wire.InputSpec, 8)
	rng := rand.New(rand.NewSource(5))
	for i := range warmup {
		warmup[i] = wire.InputSpec{
			{Type: "normal", Mu: 0.3 + 0.4*rng.Float64(), Sigma: 0.15},
			{Type: "normal", Mu: 0.3 + 0.4*rng.Float64(), Sigma: 0.15},
		}
	}
	spec := map[string]any{
		"udf": "poly/smooth2d", "eps": 0.2, "delta": 0.1,
		"warmup": warmup, "warmup_seed": warmupSeed,
	}
	if name != "" {
		spec["name"] = name
	}
	resp, body := postJSON(t, baseURL+"/v1/udfs", spec)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: %d %s", resp.StatusCode, body)
	}
	var info udfInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.TrainingPoints < 2 {
		t.Fatalf("warm-up left %d training points, want ≥ 2", info.TrainingPoints)
	}
	return info.Name
}

func TestCatalogAndHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var cat struct {
		UDFs []CatalogEntry `json:"udfs"`
	}
	if resp := getJSON(t, ts.URL+"/v1/catalog", &cat); resp.StatusCode != 200 {
		t.Fatalf("catalog: %d", resp.StatusCode)
	}
	if len(cat.UDFs) < 6 {
		t.Fatalf("catalog has %d entries, want ≥ 6", len(cat.UDFs))
	}
	names := map[string]bool{}
	for _, e := range cat.UDFs {
		names[e.Name] = true
		if e.Dim <= 0 {
			t.Fatalf("%s has dim %d", e.Name, e.Dim)
		}
	}
	for _, want := range []string{"astro/galage", "astro/comovevol", "mix/f1", "mix/f4", "poly/smooth2d"} {
		if !names[want] {
			t.Fatalf("catalog missing %q", want)
		}
	}
	var hz map[string]any
	if resp := getJSON(t, ts.URL+"/v1/healthz", &hz); resp.StatusCode != 200 {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	if hz["status"] != "ok" {
		t.Fatalf("healthz status %v", hz["status"])
	}
}

func TestRegisterValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		body   string
		status int
	}{
		{`{"udf":"nope/missing"}`, 400},
		{`{}`, 400},
		{`{"udf":"mix/f1","name":"bad name!"}`, 400},
		{`{"udf":"mix/f1","eps":-1}`, 400},
		{`{"udf":"mix/f1","eps":2}`, 400},
		{`{"udf":"mix/f1","bogus_field":1}`, 400},
		{`not json`, 400},
		{`{"udf":"mix/f1","warmup":[[{"type":"normal","mu":1,"sigma":1}]]}`, 400}, // dim 1 ≠ 2
	}
	for _, c := range cases {
		resp, err := http.Post(ts.URL+"/v1/udfs", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.status {
			t.Fatalf("register %s: got %d, want %d", c.body, resp.StatusCode, c.status)
		}
	}
	// Valid, then duplicate.
	if resp, body := postJSON(t, ts.URL+"/v1/udfs", map[string]any{"udf": "mix/f1"}); resp.StatusCode != 201 {
		t.Fatalf("register: %d %s", resp.StatusCode, body)
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/udfs", map[string]any{"udf": "mix/f1"}); resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate register: %d, want 409", resp.StatusCode)
	}
	var list struct {
		UDFs []udfInfo `json:"udfs"`
	}
	getJSON(t, ts.URL+"/v1/udfs", &list)
	if len(list.UDFs) != 1 || list.UDFs[0].Name != "mix-f1" {
		t.Fatalf("udfs list: %+v", list.UDFs)
	}
}

func TestEvalLearnAndFrozenDeterminism(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	name := registerSmooth(t, ts.URL)

	evalURL := fmt.Sprintf("%s/v1/udfs/%s/eval", ts.URL, name)
	input := wire.InputSpec{
		{Type: "normal", Mu: 0.5, Sigma: 0.1},
		{Type: "mixture", Weights: []float64{1, 1}, Components: []wire.DistSpec{
			{Type: "normal", Mu: 0.4, Sigma: 0.05},
			{Type: "uniform", Lo: 0.5, Hi: 0.7},
		}},
	}

	// Learn-mode eval returns a result satisfying the contract fields.
	resp, body := postJSON(t, evalURL, map[string]any{"input": input, "seed": 3})
	if resp.StatusCode != 200 {
		t.Fatalf("learn eval: %d %s", resp.StatusCode, body)
	}
	var r1 EvalResult
	if err := json.Unmarshal(body, &r1); err != nil {
		t.Fatal(err)
	}
	if r1.Engine != "GP" {
		t.Fatalf("engine %q, want GP", r1.Engine)
	}
	if r1.Bound <= 0 || r1.Eps != 0.2 {
		t.Fatalf("bound/eps: %+v", r1)
	}
	if r1.SupportHash == "" || len(r1.Quantiles) != 5 {
		t.Fatalf("missing dist summary: %+v", r1)
	}
	if r1.Quantiles["p05"] > r1.Quantiles["p50"] || r1.Quantiles["p50"] > r1.Quantiles["p95"] {
		t.Fatalf("quantiles out of order: %+v", r1.Quantiles)
	}

	// Frozen evals with one seed are bit-identical to each other …
	frozen := func(seed int64) EvalResult {
		learn := false
		resp, body := postJSON(t, evalURL, map[string]any{"input": input, "seed": seed, "learn": &learn})
		if resp.StatusCode != 200 {
			t.Fatalf("frozen eval: %d %s", resp.StatusCode, body)
		}
		var r EvalResult
		if err := json.Unmarshal(body, &r); err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := frozen(42), frozen(42)
	if a.SupportHash != b.SupportHash || a.Bound != b.Bound || a.Mean != b.Mean {
		t.Fatalf("frozen replay diverged: %+v vs %+v", a, b)
	}
	if a.UDFCalls != 0 || a.PointsAdded != 0 {
		t.Fatalf("frozen eval paid UDF calls: %+v", a)
	}
	// … and a different seed gives a different sample set.
	if c := frozen(43); c.SupportHash == a.SupportHash {
		t.Fatal("distinct seeds produced identical samples")
	}
}

func TestEvalValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	name := registerSmooth(t, ts.URL)
	evalURL := fmt.Sprintf("%s/v1/udfs/%s/eval", ts.URL, name)

	if resp, _ := postJSON(t, ts.URL+"/v1/udfs/ghost/eval", map[string]any{"input": wire.InputSpec{}}); resp.StatusCode != 404 {
		t.Fatalf("unknown UDF: %d, want 404", resp.StatusCode)
	}
	// Wrong arity.
	if resp, _ := postJSON(t, evalURL, map[string]any{
		"input": wire.InputSpec{{Type: "normal", Mu: 1, Sigma: 1}},
	}); resp.StatusCode != 400 {
		t.Fatalf("wrong dim: %d, want 400", resp.StatusCode)
	}
	// Invalid distribution.
	if resp, _ := postJSON(t, evalURL, map[string]any{
		"input": wire.InputSpec{{Type: "normal", Mu: 1, Sigma: -1}, {Type: "constant"}},
	}); resp.StatusCode != 400 {
		t.Fatalf("bad sigma: %d, want 400", resp.StatusCode)
	}
	// Garbage body.
	resp, err := http.Post(evalURL, "application/json", strings.NewReader("{{{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("garbage: %d, want 400", resp.StatusCode)
	}
}

func TestFrozenBeforeWarmConflicts(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// Register without warm-up: no training points.
	resp, body := postJSON(t, ts.URL+"/v1/udfs", map[string]any{"udf": "poly/smooth2d", "eps": 0.2})
	if resp.StatusCode != 201 {
		t.Fatalf("register: %d %s", resp.StatusCode, body)
	}
	learn := false
	resp, body = postJSON(t, ts.URL+"/v1/udfs/poly-smooth2d/eval", map[string]any{
		"input": wire.InputSpec{{Type: "normal", Mu: 0.5, Sigma: 0.1}, {Type: "normal", Mu: 0.5, Sigma: 0.1}},
		"learn": &learn,
	})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("frozen on cold model: %d %s, want 409", resp.StatusCode, body)
	}
}

// streamNDJSON posts lines to a stream endpoint and returns the raw
// response plus parsed lines.
func streamNDJSON(t *testing.T, url string, lines []wire.InputSpec) (int, string, []streamResult) {
	t.Helper()
	var buf bytes.Buffer
	for _, in := range lines {
		b, err := json.Marshal(streamLine{Input: in})
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(b)
		buf.WriteByte('\n')
	}
	resp, err := http.Post(url, "application/x-ndjson", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var results []streamResult
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var r streamResult
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("bad response line %q: %v", sc.Text(), err)
		}
		results = append(results, r)
	}
	return resp.StatusCode, string(raw), results
}

func testInputs(n int) []wire.InputSpec {
	rng := rand.New(rand.NewSource(31))
	lines := make([]wire.InputSpec, n)
	for i := range lines {
		lines[i] = wire.InputSpec{
			{Type: "normal", Mu: 0.3 + 0.4*rng.Float64(), Sigma: 0.12},
			{Type: "normal", Mu: 0.3 + 0.4*rng.Float64(), Sigma: 0.12},
		}
	}
	return lines
}

func TestStreamLearnThenFrozenReplay(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4})
	name := registerSmooth(t, ts.URL)
	streamURL := fmt.Sprintf("%s/v1/udfs/%s/stream", ts.URL, name)
	inputs := testInputs(20)

	status, _, learned := streamNDJSON(t, streamURL+"?seed=11", inputs)
	if status != 200 {
		t.Fatalf("learn stream: %d", status)
	}
	if len(learned) != len(inputs) {
		t.Fatalf("learn stream returned %d lines, want %d", len(learned), len(inputs))
	}
	for i, r := range learned {
		if r.Error != "" {
			t.Fatalf("line %d: %s", i, r.Error)
		}
		if r.Seq != int64(i) {
			t.Fatalf("line %d has seq %d", i, r.Seq)
		}
		if r.Bound > r.Eps+1e-12 {
			t.Fatalf("line %d: bound %g exceeds ε %g", i, r.Bound, r.Eps)
		}
	}

	// Frozen replay twice: byte-identical responses, ordered, zero UDF calls.
	status1, raw1, rep1 := streamNDJSON(t, streamURL+"?learn=false&seed=11", inputs)
	status2, raw2, _ := streamNDJSON(t, streamURL+"?learn=false&seed=11", inputs)
	if status1 != 200 || status2 != 200 {
		t.Fatalf("frozen streams: %d, %d", status1, status2)
	}
	if raw1 != raw2 {
		t.Fatalf("frozen replay not bit-identical:\n%s\nvs\n%s", raw1, raw2)
	}
	for i, r := range rep1 {
		if r.UDFCalls != 0 {
			t.Fatalf("frozen line %d paid %d UDF calls", i, r.UDFCalls)
		}
		if r.Bound > r.Eps+1e-12 {
			t.Fatalf("frozen line %d: bound %g exceeds ε %g", i, r.Bound, r.Eps)
		}
	}
	// A different seed changes the bytes.
	_, raw3, _ := streamNDJSON(t, streamURL+"?learn=false&seed=12", inputs)
	if raw3 == raw1 {
		t.Fatal("different stream seed produced identical bytes")
	}

	// The single-eval frozen path is line 0 of the stream with the same seed.
	learn := false
	resp, body := postJSON(t, fmt.Sprintf("%s/v1/udfs/%s/eval", ts.URL, name),
		map[string]any{"input": inputs[0], "seed": 11, "learn": &learn})
	if resp.StatusCode != 200 {
		t.Fatalf("single frozen eval: %d %s", resp.StatusCode, body)
	}
	var single EvalResult
	if err := json.Unmarshal(body, &single); err != nil {
		t.Fatal(err)
	}
	if single.SupportHash != rep1[0].SupportHash {
		t.Fatalf("single frozen eval hash %s ≠ stream line 0 hash %s", single.SupportHash, rep1[0].SupportHash)
	}
}

func TestStreamMalformedLine(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	name := registerSmooth(t, ts.URL)
	streamURL := fmt.Sprintf("%s/v1/udfs/%s/stream", ts.URL, name)

	body := `{"input":[{"type":"normal","mu":0.5,"sigma":0.1},{"type":"normal","mu":0.5,"sigma":0.1}]}
this is not json
`
	resp, err := http.Post(streamURL+"?learn=false&seed=1", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(raw), `"error"`) {
		t.Fatalf("malformed line did not yield an error line: %s", raw)
	}
	// The server must stay healthy afterwards (no leaked tokens/slots).
	for i := 0; i < 3; i++ {
		status, _, rs := streamNDJSON(t, streamURL+"?learn=false&seed=2", testInputs(4))
		if status != 200 || len(rs) != 4 {
			t.Fatalf("post-error stream %d: status %d, %d lines", i, status, len(rs))
		}
	}
	// Bad seed parameter.
	resp, err = http.Post(streamURL+"?seed=abc", "application/x-ndjson", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("bad seed: %d, want 400", resp.StatusCode)
	}
}

func TestAdmissionControl(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInFlight: 2})
	name := registerSmooth(t, ts.URL)

	// Exhaust capacity out-of-band, then expect 429 + Retry-After.
	if !s.tryAdmit() || !s.tryAdmit() {
		t.Fatal("could not take admission tokens")
	}
	defer func() { s.release(); s.release() }()
	resp, body := postJSON(t, fmt.Sprintf("%s/v1/udfs/%s/eval", ts.URL, name),
		map[string]any{"input": testInputs(1)[0]})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("at capacity: %d %s, want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	// Streams are refused at admission too.
	sresp, err := http.Post(fmt.Sprintf("%s/v1/udfs/%s/stream?learn=false", ts.URL, name),
		"application/x-ndjson", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if sresp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("stream at capacity: %d, want 429", sresp.StatusCode)
	}
}

// At the minimum legal capacity a stream must still make progress: its
// admission probe must not hold a standing token that its own first tuple
// then blocks on (regression test for that deadlock).
func TestStreamAtMinimumCapacity(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxInFlight: 1, Workers: 2})
	name := registerSmooth(t, ts.URL)
	streamURL := fmt.Sprintf("%s/v1/udfs/%s/stream", ts.URL, name)
	inputs := testInputs(6)
	if status, _, rs := streamNDJSON(t, streamURL+"?seed=2", inputs); status != 200 || len(rs) != 6 {
		t.Fatalf("learn stream at max-inflight=1: status %d, %d lines", status, len(rs))
	}
	if status, _, rs := streamNDJSON(t, streamURL+"?learn=false&seed=2", inputs); status != 200 || len(rs) != 6 {
		t.Fatalf("frozen stream at max-inflight=1: status %d, %d lines", status, len(rs))
	}
}

func TestDeadlineCancellation(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	name := registerSmooth(t, ts.URL)
	e, ok := s.reg.Get(name)
	if !ok {
		t.Fatal("entry missing")
	}

	// Hold the learner token with a long closure, then watch a deadline
	// fire while an eval waits its turn.
	block := make(chan struct{})
	go e.withWriter(context.Background(), func(*core.Evaluator) error {
		<-block
		return nil
	})
	defer close(block)
	time.Sleep(20 * time.Millisecond) // let the blocker take the token

	resp, body := postJSON(t, fmt.Sprintf("%s/v1/udfs/%s/eval?timeout_ms=50", ts.URL, name),
		map[string]any{"input": testInputs(1)[0]})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("deadline: %d %s, want 504", resp.StatusCode, body)
	}
}

func TestSnapshotRoundTripAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newTestServer(t, Config{SnapshotDir: dir, Workers: 2})
	name := registerSmooth(t, ts1.URL)
	streamURL := fmt.Sprintf("%s/v1/udfs/%s/stream", ts1.URL, name)
	inputs := testInputs(12)

	// Learn, then record a frozen replay.
	if status, _, _ := streamNDJSON(t, streamURL+"?seed=9", inputs); status != 200 {
		t.Fatalf("learn stream: %d", status)
	}
	_, before, _ := streamNDJSON(t, streamURL+"?learn=false&seed=9", inputs)

	// Snapshot everything and "restart".
	resp, body := postJSON(t, ts1.URL+"/v1/snapshot", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("snapshot: %d %s", resp.StatusCode, body)
	}
	var snaps struct {
		Snapshots []snapshotInfo `json:"snapshots"`
	}
	if err := json.Unmarshal(body, &snaps); err != nil {
		t.Fatal(err)
	}
	if len(snaps.Snapshots) != 1 || snaps.Snapshots[0].TrainingPoints < 2 {
		t.Fatalf("snapshot info: %+v", snaps)
	}
	ts1.Close()
	s1.Close()

	s2, err := New(Config{SnapshotDir: dir, Workers: 2})
	if err != nil {
		t.Fatalf("restore boot: %v", err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	defer s2.Close()

	// The UDF is back without re-registration, with its training set.
	var list struct {
		UDFs []udfInfo `json:"udfs"`
	}
	getJSON(t, ts2.URL+"/v1/udfs", &list)
	if len(list.UDFs) != 1 || list.UDFs[0].Name != name {
		t.Fatalf("restored udfs: %+v", list.UDFs)
	}
	if int(list.UDFs[0].TrainingPoints) != snaps.Snapshots[0].TrainingPoints {
		t.Fatalf("restored %d points, snapshot had %d",
			list.UDFs[0].TrainingPoints, snaps.Snapshots[0].TrainingPoints)
	}

	// Seeded replay on the restored server is bit-identical.
	_, after, _ := streamNDJSON(t, fmt.Sprintf("%s/v1/udfs/%s/stream?learn=false&seed=9", ts2.URL, name), inputs)
	if before != after {
		t.Fatalf("replay after restart diverged:\n%s\nvs\n%s", before, after)
	}
}

func TestSnapshotWithoutDir(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	name := registerSmooth(t, ts.URL)
	resp, body := postJSON(t, fmt.Sprintf("%s/v1/udfs/%s/snapshot", ts.URL, name), nil)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("snapshot without dir: %d %s", resp.StatusCode, body)
	}
}

func TestStatsSavings(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	name := registerSmooth(t, ts.URL)
	streamURL := fmt.Sprintf("%s/v1/udfs/%s/stream", ts.URL, name)
	if status, _, _ := streamNDJSON(t, streamURL+"?seed=4", testInputs(10)); status != 200 {
		t.Fatal("learn stream failed")
	}
	var stats struct {
		UDFs            []UDFStats `json:"udfs"`
		TotalSavedCalls int64      `json:"total_saved_calls"`
	}
	if resp := getJSON(t, ts.URL+"/v1/stats", &stats); resp.StatusCode != 200 {
		t.Fatalf("stats: %d", resp.StatusCode)
	}
	if len(stats.UDFs) != 1 {
		t.Fatalf("stats has %d UDFs", len(stats.UDFs))
	}
	st := stats.UDFs[0]
	if st.Name != name || st.Inputs < 18 { // 8 warm-up + 10 streamed
		t.Fatalf("stats: %+v", st)
	}
	if st.MCSamplesPerInput <= 0 || st.MCEquivalentCalls != st.Inputs*int64(st.MCSamplesPerInput) {
		t.Fatalf("MC equivalence wrong: %+v", st)
	}
	// The whole point: the GP serves traffic for far fewer UDF calls than MC.
	if st.SavedCalls <= 0 || st.SavingsRatio < 0.5 {
		t.Fatalf("no savings: %+v", st)
	}
	if st.UDFCalls >= int(st.MCEquivalentCalls) {
		t.Fatalf("UDF calls %d not below MC equivalent %d", st.UDFCalls, st.MCEquivalentCalls)
	}
}

func TestDrainRefusesNewWork(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	name := registerSmooth(t, ts.URL)
	s.Close()
	resp, _ := postJSON(t, fmt.Sprintf("%s/v1/udfs/%s/eval", ts.URL, name),
		map[string]any{"input": testInputs(1)[0]})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining server: %d, want 503", resp.StatusCode)
	}
	if resp2 := getJSON(t, ts.URL+"/v1/healthz", nil); resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz: %d, want 503", resp2.StatusCode)
	}
}

// The learn-mode seeding must match the documented derivation: line i of a
// learn stream and exec.TupleSeed(seed, i) drive the same RNG.
func TestLearnSeedDerivation(t *testing.T) {
	// White-box: a registry entry evaluated directly must match the
	// documented TupleSeed derivation byte-for-byte.
	reg := NewRegistry(1)
	e, err := reg.Register(RegisterSpec{UDF: "poly/smooth2d", Eps: 0.2, Delta: 0.1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	in, err := (wire.InputSpec{
		{Type: "normal", Mu: 0.5, Sigma: 0.1},
		{Type: "normal", Mu: 0.5, Sigma: 0.1},
	}).Vector()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var bound, mean float64
	if err := e.learnEval(ctx, in, exec.TupleSeed(21, 0), func(out *core.Output) {
		bound, mean = out.Bound, out.Dist.Mean()
	}); err != nil {
		t.Fatal(err)
	}
	// Rebuild the same evaluator manually and replay with the same rng.
	def, _ := lookupCatalog("poly/smooth2d")
	ev, err := core.NewEvaluator(def.mkUDF(), core.Config{Eps: 0.2, Delta: 0.1, Kernel: def.kernel()})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(exec.TupleSeed(21, 0)))
	want, err := ev.Eval(in, rng)
	if err != nil {
		t.Fatal(err)
	}
	if bound != want.Bound || mean != want.Dist.Mean() {
		t.Fatalf("server learn eval diverged from direct eval: %g/%g vs %g/%g",
			bound, mean, want.Bound, want.Dist.Mean())
	}
}

// A σ = 1e308 normal is a valid spec whose samples overflow to ±∞, where
// the GP's predictive variance is NaN, so the envelope holds NaN support
// points. Every route that
// evaluates it must answer — a 200 with well-formed JSON, or a structured
// error envelope (or error line) — and never panic, hang or write an empty
// 200.
func TestHugeSigmaInputAnswers(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	name := registerSmooth(t, ts.URL)
	input := wire.InputSpec{{Type: "normal", Mu: 3, Sigma: 1e308}, {Type: "normal", Mu: 0.5, Sigma: 0.1}}
	evalURL := fmt.Sprintf("%s/v1/udfs/%s/eval", ts.URL, name)
	for _, learn := range []bool{false, true} {
		resp, body := postJSON(t, evalURL, map[string]any{"input": input, "seed": 5, "learn": &learn})
		if resp.StatusCode == http.StatusOK {
			var r EvalResult
			if err := json.Unmarshal(body, &r); err != nil {
				t.Fatalf("learn=%v: 200 with bad body %q: %v", learn, body, err)
			}
			continue
		}
		var env wire.ErrorEnvelope
		if err := json.Unmarshal(body, &env); err != nil || env.Error.Code == "" {
			t.Fatalf("learn=%v: %d without an error envelope: %q", learn, resp.StatusCode, body)
		}
	}
	streamURL := fmt.Sprintf("%s/v1/udfs/%s/stream?learn=false&seed=1", ts.URL, name)
	status, raw, rs := streamNDJSON(t, streamURL, []wire.InputSpec{input, testInputs(1)[0]})
	if status != http.StatusOK || len(rs) == 0 {
		t.Fatalf("frozen stream: %d, %d lines: %q", status, len(rs), raw)
	}
	if rs[0].Error == "" && rs[0].Engine == "" {
		t.Fatalf("frozen stream: first line has neither result nor error: %q", raw)
	}
	// The process and its model survive: an ordinary frozen eval still works.
	resp, body := postJSON(t, evalURL, map[string]any{"input": testInputs(1)[0], "seed": 5})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("eval after the huge-σ input: %d %s", resp.StatusCode, body)
	}
}

// TestInstallReplicaValidatesSwapSpec checks that a replica swap validates
// the spec the way a first install does: the spec arrives from a peer's
// Olgapro-Spec header, so a negative eps or a bad sparse block is refused
// and leaves the replica's model seq, evaluator and registry version
// untouched. A valid swap bumps the registry version exactly once.
func TestInstallReplicaValidatesSwapSpec(t *testing.T) {
	owner, tsOwner := newTestServer(t, Config{})
	name := registerSmooth(t, tsOwner.URL)
	e, _ := owner.reg.Get(name)
	data, _, _, err := e.snapshot()
	if err != nil {
		t.Fatal(err)
	}
	readSnap := func(seqDelta int64) *core.Snapshot {
		s, err := core.ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		s.ModelSeq += seqDelta
		return s
	}

	replica, _ := newTestServer(t, Config{})
	if err := replica.reg.InstallReplica(e.Spec(), readSnap(0)); err != nil {
		t.Fatal(err)
	}
	re, _ := replica.reg.Get(name)
	evOf := func() *core.Evaluator {
		var got *core.Evaluator
		if err := re.withWriter(context.Background(), func(ev *core.Evaluator) error {
			got = ev
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return got
	}
	seq, ev, ver := re.Seq(), evOf(), replica.reg.version.Load()

	negEps := e.Spec()
	negEps.Eps = -1
	badSparse := e.Spec()
	badSparse.Sparse = &wire.SparseSpec{Budget: 1}
	for label, spec := range map[string]RegisterSpec{"eps -1": negEps, "sparse budget 1": badSparse} {
		if err := replica.reg.InstallReplica(spec, readSnap(1)); err == nil {
			t.Errorf("%s: swap accepted, want refused", label)
		}
		if re.Seq() != seq || evOf() != ev || replica.reg.version.Load() != ver {
			t.Fatalf("%s: refused swap moved the replica (seq %d → %d, version %d → %d, evaluator swapped %v)",
				label, seq, re.Seq(), ver, replica.reg.version.Load(), evOf() != ev)
		}
	}

	if err := replica.reg.InstallReplica(e.Spec(), readSnap(1)); err != nil {
		t.Fatal(err)
	}
	if re.Seq() != seq+1 || evOf() == ev {
		t.Fatalf("valid swap: seq %d → %d, evaluator swapped %v", seq, re.Seq(), evOf() != ev)
	}
	if got := replica.reg.version.Load(); got != ver+1 {
		t.Fatalf("valid swap moved the registry version %d → %d, want one bump", ver, got)
	}
}
