package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
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
// asserts each one produces a decodable envelope with its documented code,
// its exact message and its Retry-After header (none for these refusals).
func TestErrorEnvelopeConformance(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	name := registerSmooth(t, ts.URL)

	// Cold instance for the model_cold path.
	if resp, body := postJSON(t, ts.URL+"/v1/udfs", map[string]any{"udf": "mix/f1", "name": "cold"}); resp.StatusCode != 201 {
		t.Fatalf("register cold: %d %s", resp.StatusCode, body)
	}

	cases := []struct {
		label   string
		method  string
		path    string
		body    string
		status  int
		code    wire.ErrorCode
		message string
	}{
		{"register garbage", "POST", "/v1/udfs", `not json`, 400, wire.CodeBadSpec,
			"bad register request: invalid character 'o' in literal null (expecting 'u')"},
		{"register unknown UDF", "POST", "/v1/udfs", `{"udf":"nope/missing"}`, 400, wire.CodeBadSpec,
			`server: unknown catalog UDF "nope/missing" (see GET /catalog)`},
		{"register duplicate", "POST", "/v1/udfs", `{"udf":"poly/smooth2d"}`, 409, wire.CodeAlreadyExists,
			`server: UDF "poly-smooth2d" already registered`},
		{"register warm-up of the wrong dimension", "POST", "/v1/udfs",
			`{"udf":"poly/smooth2d","name":"w","warmup":[[{"type":"normal","mu":1,"sigma":1}]]}`, 400, wire.CodeBadSpec,
			"warmup[0]: dim 1 ≠ UDF dim 2"},
		{"eval unknown instance", "POST", "/v1/udfs/ghost/eval", `{"input":[]}`, 404, wire.CodeNotFound,
			`no UDF "ghost" registered`},
		{"eval garbage", "POST", "/v1/udfs/" + name + "/eval", `{{{`, 400, wire.CodeBadSpec,
			"bad eval request: invalid character '{' looking for beginning of object key string"},
		{"eval wrong arity", "POST", "/v1/udfs/" + name + "/eval",
			`{"input":[{"type":"normal","mu":1,"sigma":1}]}`, 400, wire.CodeBadSpec,
			`input has 1 attributes, UDF "poly-smooth2d" wants 2`},
		{"frozen eval on cold model", "POST", "/v1/udfs/cold/eval",
			`{"input":[{"type":"normal","mu":1,"sigma":1},{"type":"normal","mu":1,"sigma":1}],"learn":false}`,
			409, wire.CodeModelCold, "server: model not warm yet — run learning traffic or restore a snapshot first"},
		{"stream bad seed", "POST", "/v1/udfs/" + name + "/stream?seed=abc", "", 400, wire.CodeBadSpec,
			`bad seed "abc"`},
		{"stream unknown instance", "POST", "/v1/udfs/ghost/stream", "", 404, wire.CodeNotFound,
			`no UDF "ghost" registered`},
		{"snapshot unknown instance", "POST", "/v1/udfs/ghost/snapshot", "", 404, wire.CodeNotFound,
			`no UDF "ghost" registered`},
		{"snapshot without dir", "POST", "/v1/udfs/" + name + "/snapshot", "", 500, wire.CodeInternal,
			"server: no -snapshot-dir configured"},
		{"snapshot all without dir", "POST", "/v1/snapshot", "", 500, wire.CodeInternal,
			`snapshot "cold": server: no -snapshot-dir configured`},
		{"query garbage", "POST", "/v1/query", `{{{`, 400, wire.CodeBadSpec,
			"bad query request: invalid character '{' looking for beginning of object key string"},
		{"query unknown instance", "POST", "/v1/query",
			`{"udf":"ghost","rows":[{"input":[{"type":"normal","mu":1,"sigma":1}]}]}`, 404, wire.CodeNotFound,
			`no UDF "ghost" registered`},
		{"replication list bad cursor", "GET", "/v1/replication/udfs?since_version=junk", "", 400, wire.CodeBadSpec,
			`bad since_version "junk"`},
		{"snapshot fetch unknown instance", "GET", "/v1/udfs/ghost/snapshot", "", 404, wire.CodeNotFound,
			`no UDF "ghost" registered`},
		{"snapshot fetch bad min_seq", "GET", "/v1/udfs/" + name + "/snapshot?min_seq=junk", "", 400, wire.CodeBadSpec,
			`bad min_seq "junk"`},
		// Push hints are gone; an older owner's hint gets an unknown route.
		{"retired push hint", "POST", "/v1/replication/hint", `{"name":"x","seq":1,"from":"http://peer"}`, 404, wire.CodeNotFound,
			"no route POST /v1/replication/hint"},
	}
	for _, c := range cases {
		resp, body := do(t, c.method, ts.URL+c.path, "application/json", c.body)
		t.Logf("%s: %d %s", c.label, resp.StatusCode, bytes.TrimSpace(body))
		env := wantEnvelope(t, resp, body, c.status, c.code)
		if env.Error.Message != c.message || env.Error.RetryAfterMS != 0 || resp.Header.Get("Retry-After") != "" {
			t.Errorf("%s: message %q, retry_after_ms %d, Retry-After %q; want %q and no backoff hint",
				c.label, env.Error.Message, env.Error.RetryAfterMS, resp.Header.Get("Retry-After"), c.message)
		}
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
	if env.Error.Message != "at capacity (1 tuples in flight)" || env.Error.RetryAfterMS != 1000 {
		t.Fatalf("429 envelope %s, want the capacity message and retry_after_ms 1000", body)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("429 Retry-After %q, want 1", got)
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

// TestWrongMethodIsNotFoundBeforeAuth pins the routing rules of the
// catch-all: a known path under another method answers the 404 not_found
// envelope (not net/http's 405), and unknown routes answer it before the
// bearer check. A path that is not in canonical form gets net/http's 301
// to the cleaned path, also before the bearer check; the redirect target
// is then routed by these same rules.
func TestWrongMethodIsNotFoundBeforeAuth(t *testing.T) {
	s, ts := newTestServer(t, Config{AuthToken: "sekrit"})
	for _, c := range [][2]string{{"DELETE", "/v1/stats"}, {"POST", "/v1/healthz"}, {"GET", "/v1/udfs/x/eval"}, {"GET", "/v1/nope"}} {
		resp, body := do(t, c[0], ts.URL+c[1], "", "")
		wantEnvelope(t, resp, body, http.StatusNotFound, wire.CodeNotFound)
	}
	for _, c := range [][2]string{{"/v1//stats", "/v1/stats"}, {"/v1//nope", "/v1/nope"}} {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", c[0], nil))
		if rec.Code != http.StatusMovedPermanently || rec.Header().Get("Location") != c[1] {
			t.Errorf("GET %s: %d to %q, want 301 to %s", c[0], rec.Code, rec.Header().Get("Location"), c[1])
		}
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
	data, _, _, err := e.snapshot()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := core.ReadSnapshot(bytes.NewReader(data))
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
