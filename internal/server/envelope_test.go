package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"olgapro/internal/core"
	"olgapro/internal/server/wire"
)

// wantEnvelope asserts that a failure response carries the structured error
// envelope with the documented status and code — the /v1 wire contract every
// client dispatches on.
func wantEnvelope(t *testing.T, resp *http.Response, body []byte, status int, code wire.ErrorCode) wire.ErrorEnvelope {
	t.Helper()
	if resp.StatusCode != status {
		t.Fatalf("status %d, want %d (body %s)", resp.StatusCode, status, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("error response Content-Type %q, want application/json", ct)
	}
	var env wire.ErrorEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("error body is not an envelope: %v (body %s)", err, body)
	}
	if env.Error.Code != code {
		t.Fatalf("error code %q, want %q (body %s)", env.Error.Code, code, body)
	}
	if env.Error.Message == "" {
		t.Fatalf("empty error message: %s", body)
	}
	return env
}

// do issues one request with an optional body and returns the buffered
// response.
func do(t *testing.T, method, url, contentType, body string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := http.DefaultClient.Do(req)
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

// TestErrorEnvelopeConformance sweeps every handler's failure paths and
// asserts each one produces a decodable envelope with its documented code.
func TestErrorEnvelopeConformance(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	name := registerSmooth(t, ts.URL)

	// Cold instance for the model_cold path.
	if resp, body := postJSON(t, ts.URL+"/v1/udfs", map[string]any{"udf": "mix/f1", "name": "cold"}); resp.StatusCode != 201 {
		t.Fatalf("register cold: %d %s", resp.StatusCode, body)
	}

	cases := []struct {
		label  string
		method string
		path   string
		body   string
		status int
		code   wire.ErrorCode
	}{
		{"register garbage", "POST", "/v1/udfs", `not json`, 400, wire.CodeBadSpec},
		{"register unknown UDF", "POST", "/v1/udfs", `{"udf":"nope/missing"}`, 400, wire.CodeBadSpec},
		{"register duplicate", "POST", "/v1/udfs", `{"udf":"poly/smooth2d"}`, 409, wire.CodeAlreadyExists},
		{"eval unknown instance", "POST", "/v1/udfs/ghost/eval", `{"input":[]}`, 404, wire.CodeNotFound},
		{"eval garbage", "POST", "/v1/udfs/" + name + "/eval", `{{{`, 400, wire.CodeBadSpec},
		{"eval wrong arity", "POST", "/v1/udfs/" + name + "/eval",
			`{"input":[{"type":"normal","mu":1,"sigma":1}]}`, 400, wire.CodeBadSpec},
		{"frozen eval on cold model", "POST", "/v1/udfs/cold/eval",
			`{"input":[{"type":"normal","mu":1,"sigma":1},{"type":"normal","mu":1,"sigma":1}],"learn":false}`,
			409, wire.CodeModelCold},
		{"stream bad seed", "POST", "/v1/udfs/" + name + "/stream?seed=abc", "", 400, wire.CodeBadSpec},
		{"stream unknown instance", "POST", "/v1/udfs/ghost/stream", "", 404, wire.CodeNotFound},
		{"snapshot unknown instance", "POST", "/v1/udfs/ghost/snapshot", "", 404, wire.CodeNotFound},
		{"snapshot without dir", "POST", "/v1/udfs/" + name + "/snapshot", "", 500, wire.CodeInternal},
		{"query garbage", "POST", "/v1/query", `{{{`, 400, wire.CodeBadSpec},
		{"query unknown instance", "POST", "/v1/query",
			`{"udf":"ghost","rows":[{"input":[{"type":"normal","mu":1,"sigma":1}]}]}`, 404, wire.CodeNotFound},
		{"replication list bad cursor", "GET", "/v1/replication/udfs?since_version=junk", "", 400, wire.CodeBadSpec},
		{"snapshot fetch unknown instance", "GET", "/v1/udfs/ghost/snapshot", "", 404, wire.CodeNotFound},
		{"snapshot fetch bad min_seq", "GET", "/v1/udfs/" + name + "/snapshot?min_seq=junk", "", 400, wire.CodeBadSpec},
	}
	for _, c := range cases {
		resp, body := do(t, c.method, ts.URL+c.path, "application/json", c.body)
		t.Logf("%s: %d %s", c.label, resp.StatusCode, bytes.TrimSpace(body))
		wantEnvelope(t, resp, body, c.status, c.code)
	}
}

// TestEnvelopeOverCapacity asserts the 429 refusal carries over_capacity,
// a positive retry_after_ms hint, and the Retry-After header.
func TestEnvelopeOverCapacity(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInFlight: 1})
	name := registerSmooth(t, ts.URL)
	if !s.tryAdmit() {
		t.Fatal("could not take the admission token")
	}
	defer s.release()

	resp, body := do(t, "POST", ts.URL+"/v1/udfs/"+name+"/eval", "application/json",
		`{"input":[{"type":"normal","mu":0.5,"sigma":0.1},{"type":"normal","mu":0.5,"sigma":0.1}]}`)
	env := wantEnvelope(t, resp, body, http.StatusTooManyRequests, wire.CodeOverCapacity)
	if env.Error.RetryAfterMS <= 0 {
		t.Fatalf("429 without retry_after_ms: %s", body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}
}

// TestEnvelopeUnauthorized asserts bearer-auth refusals use the envelope and
// that health probes stay exempt.
func TestEnvelopeUnauthorized(t *testing.T) {
	_, ts := newTestServer(t, Config{AuthToken: "sekrit"})

	resp, body := do(t, "GET", ts.URL+"/v1/udfs", "", "")
	wantEnvelope(t, resp, body, http.StatusUnauthorized, wire.CodeUnauthorized)
	resp, body = do(t, "GET", ts.URL+"/udfs", "", "") // unversioned paths are gone
	wantEnvelope(t, resp, body, http.StatusNotFound, wire.CodeNotFound)

	// Wrong token is refused; the right one passes.
	req, _ := http.NewRequest("GET", ts.URL+"/v1/udfs", nil)
	req.Header.Set("Authorization", "Bearer wrong")
	if resp, err := http.DefaultClient.Do(req); err != nil || resp.StatusCode != 401 {
		t.Fatalf("wrong token: %v %v", resp, err)
	} else {
		resp.Body.Close()
	}
	req, _ = http.NewRequest("GET", ts.URL+"/v1/udfs", nil)
	req.Header.Set("Authorization", "Bearer sekrit")
	if resp, err := http.DefaultClient.Do(req); err != nil || resp.StatusCode != 200 {
		t.Fatalf("right token: %v %v", resp, err)
	} else {
		resp.Body.Close()
	}

	// Liveness probes must work without credentials (LBs, fleet health).
	if resp, _ := do(t, "GET", ts.URL+"/v1/healthz", "", ""); resp.StatusCode != 200 {
		t.Fatalf("unauthenticated /v1/healthz: %d, want 200", resp.StatusCode)
	}
}

// TestEnvelopeDraining asserts the shutdown refusal uses the envelope.
func TestEnvelopeDraining(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.Close()
	resp, body := do(t, "GET", ts.URL+"/v1/udfs", "", "")
	wantEnvelope(t, resp, body, http.StatusServiceUnavailable, wire.CodeDraining)
}

// TestEnvelopeDeadlineExceeded asserts a fired per-request deadline maps to
// 504 deadline_exceeded.
func TestEnvelopeDeadlineExceeded(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	name := registerSmooth(t, ts.URL)
	e, ok := s.reg.Get(name)
	if !ok {
		t.Fatal("entry missing")
	}
	block := make(chan struct{})
	go e.withWriter(context.Background(), func(*core.Evaluator) error {
		<-block
		return nil
	})
	defer close(block)
	time.Sleep(20 * time.Millisecond)

	resp, body := do(t, "POST", ts.URL+"/v1/udfs/"+name+"/eval?timeout_ms=50", "application/json",
		`{"input":[{"type":"normal","mu":0.5,"sigma":0.1},{"type":"normal","mu":0.5,"sigma":0.1}]}`)
	wantEnvelope(t, resp, body, http.StatusGatewayTimeout, wire.CodeDeadlineExceeded)
}

// TestEnvelopeNotOwner asserts learning traffic against a read replica is
// refused with not_owner, pointing the client at the owning shard.
func TestEnvelopeNotOwner(t *testing.T) {
	owner, tsOwner := newTestServer(t, Config{})
	name := registerSmooth(t, tsOwner.URL)
	e, ok := owner.reg.Get(name)
	if !ok {
		t.Fatal("entry missing")
	}
	var buf bytes.Buffer
	if _, _, err := e.snapshot(context.Background(), &buf); err != nil {
		t.Fatal(err)
	}
	snap, err := core.ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}

	replica, tsReplica := newTestServer(t, Config{})
	if err := replica.reg.InstallReplica(e.Spec(), snap); err != nil {
		t.Fatal(err)
	}

	// Learning traffic on the replica: refused with not_owner.
	resp, body := do(t, "POST", tsReplica.URL+"/v1/udfs/"+name+"/eval", "application/json",
		`{"input":[{"type":"normal","mu":0.5,"sigma":0.1},{"type":"normal","mu":0.5,"sigma":0.1}]}`)
	wantEnvelope(t, resp, body, http.StatusConflict, wire.CodeNotOwner)

	// Frozen traffic is exactly what replicas are for.
	resp, body = do(t, "POST", tsReplica.URL+"/v1/udfs/"+name+"/eval", "application/json",
		`{"input":[{"type":"normal","mu":0.5,"sigma":0.1},{"type":"normal","mu":0.5,"sigma":0.1}],"learn":false,"seed":7}`)
	if resp.StatusCode != 200 {
		t.Fatalf("frozen eval on replica: %d %s", resp.StatusCode, body)
	}
}

// TestStreamErrorLineCarriesCode asserts in-band stream errors mirror the
// HTTP envelope with a machine-readable error_code.
func TestStreamErrorLineCarriesCode(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	name := registerSmooth(t, ts.URL)
	body := `{"input":[{"type":"normal","mu":0.5,"sigma":0.1},{"type":"normal","mu":0.5,"sigma":0.1}]}
this is not json
`
	resp, raw := do(t, "POST", ts.URL+"/v1/udfs/"+name+"/stream?learn=false&seed=1", "application/x-ndjson", body)
	if resp.StatusCode != 200 {
		t.Fatalf("stream: %d", resp.StatusCode)
	}
	lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
	var last wire.StreamResult
	if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
		t.Fatalf("bad terminal line %s: %v", lines[len(lines)-1], err)
	}
	if last.Error == "" || last.ErrorCode != wire.CodeBadSpec {
		t.Fatalf("terminal stream error missing code: %+v", last)
	}
}
