package fleet

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"olgapro/internal/server/wire"
)

// TestRouterMuxCoversCanonicalRoutes pins the router mux to wire.Routes:
// every both- or router-scoped entry must resolve to a registered
// handler, and shard-internal entries (replication, snapshot fetch,
// query partials) must not be exposed through the router.
func TestRouterMuxCoversCanonicalRoutes(t *testing.T) {
	rt, err := NewRouter(Config{Shards: []string{"http://127.0.0.1:1"}})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	for _, route := range wire.Routes {
		req := httptest.NewRequest(route.Method, strings.ReplaceAll(route.Path, "{name}", "x"), nil)
		// The catch-all "/" answers the not_found envelope: a route that
		// resolves only to it is not registered.
		_, pattern := rt.mux.Handler(req)
		if route.Scope == wire.ScopeShard {
			if pattern != "/" {
				t.Errorf("shard-only route %s %s resolves on the router mux (pattern %q)",
					route.Method, route.Path, pattern)
			}
			continue
		}
		if pattern == "/" {
			t.Errorf("route %s %s does not resolve on the router mux", route.Method, route.Path)
		}
	}
}

// TestRouterUnknownRouteEnvelope asserts a path outside the route table —
// including the retired unversioned aliases — answers the not_found
// envelope, before auth.
func TestRouterUnknownRouteEnvelope(t *testing.T) {
	rt, err := NewRouter(Config{Shards: []string{"http://127.0.0.1:1"}, AuthToken: "sekrit"})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	for _, path := range []string{"/udfs", "/healthz", "/v1/nope"} {
		rec := httptest.NewRecorder()
		rt.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		var env wire.ErrorEnvelope
		if rec.Code != http.StatusNotFound || json.Unmarshal(rec.Body.Bytes(), &env) != nil || env.Error.Code != wire.CodeNotFound {
			t.Fatalf("GET %s: %d %q, want a 404 not_found envelope", path, rec.Code, rec.Body.String())
		}
	}
}

// TestRouterWrongMethodNotFound: a known path under another method answers
// the 404 not_found envelope before the bearer check, as on a shard.
func TestRouterWrongMethodNotFound(t *testing.T) {
	rt, err := NewRouter(Config{Shards: []string{"http://127.0.0.1:1"}, AuthToken: "sekrit"})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	for _, c := range [][2]string{{"DELETE", "/v1/stats"}, {"POST", "/v1/healthz"}, {"GET", "/v1/query"}} {
		rec := httptest.NewRecorder()
		rt.Handler().ServeHTTP(rec, httptest.NewRequest(c[0], c[1], nil))
		var env wire.ErrorEnvelope
		if rec.Code != http.StatusNotFound || json.Unmarshal(rec.Body.Bytes(), &env) != nil || env.Error.Code != wire.CodeNotFound {
			t.Fatalf("%s %s: %d %q, want a 404 not_found envelope", c[0], c[1], rec.Code, rec.Body.String())
		}
	}
	// A non-canonical path gets net/http's 301 to the cleaned path before
	// the bearer check, as on a shard.
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1//stats", nil))
	if rec.Code != http.StatusMovedPermanently || rec.Header().Get("Location") != "/v1/stats" {
		t.Fatalf("GET /v1//stats: %d to %q, want 301 to /v1/stats", rec.Code, rec.Header().Get("Location"))
	}
}

// countingBody is a request body of "{" and spaces, size bytes long, that
// counts the bytes a handler reads from it.
type countingBody struct{ read, size int }

func (b *countingBody) Read(p []byte) (int, error) {
	if b.read >= b.size {
		return 0, io.EOF
	}
	n := min(len(p), b.size-b.read)
	for i := range p[:n] {
		p[i] = ' '
	}
	if b.read == 0 && n > 0 {
		p[0] = '{'
	}
	b.read += n
	return n, nil
}

// TestRouterRequestBodyCap: the router refuses every non-stream JSON body
// over wire.MaxRequestBytes with 413 over_capacity before forwarding it,
// after reading at most one byte past the cap.
func TestRouterRequestBodyCap(t *testing.T) {
	rt, err := NewRouter(Config{Shards: []string{"http://127.0.0.1:1"}})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	for _, path := range []string{"/v1/udfs", "/v1/udfs/x/eval", "/v1/udfs/x/stream", "/v1/query", "/v1/fleet/members"} {
		body := &countingBody{size: 2 * wire.MaxRequestBytes}
		rec := httptest.NewRecorder()
		rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, body))
		var env wire.ErrorEnvelope
		if json.Unmarshal(rec.Body.Bytes(), &env) != nil || rec.Code != http.StatusRequestEntityTooLarge ||
			env.Error.Code != wire.CodeOverCapacity || body.read > wire.MaxRequestBytes+1 {
			t.Errorf("POST %s over the cap: %d %q after reading %d bytes, want 413 over_capacity after ≤ %d",
				path, rec.Code, rec.Body.String(), body.read, wire.MaxRequestBytes+1)
		}
	}
}

// TestRouterMembersPostStrict: POST /v1/fleet/members decodes its body
// strictly, as every shard body is: an unknown field or trailing data is a
// 400 bad_spec and mints no epoch, while a well-formed join is adopted.
func TestRouterMembersPostStrict(t *testing.T) {
	rt, err := NewRouter(Config{Shards: []string{"http://127.0.0.1:1"}})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	post := func(body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/fleet/members", strings.NewReader(body)))
		return rec
	}
	for _, body := range []string{
		`{"op":"join","shard":"http://x","epoch":5}`,
		`{"op":"join","shard":"http://x"} {"op":"leave"}`,
		`{"op":"join","shard":"http://x"}garbage`,
	} {
		rec := post(body)
		var env wire.ErrorEnvelope
		if json.Unmarshal(rec.Body.Bytes(), &env) != nil || rec.Code != http.StatusBadRequest || env.Error.Code != wire.CodeBadSpec {
			t.Errorf("POST %s: %d %q, want 400 bad_spec", body, rec.Code, rec.Body.String())
		}
	}
	if got := rt.view.Current().Epoch; got != 0 {
		t.Fatalf("refused bodies minted epoch %d", got)
	}
	if rec := post(`{"op":"join","shard":"http://127.0.0.1:2"}`); rec.Code != http.StatusOK || rt.view.Current().Epoch != 1 {
		t.Fatalf("well-formed join: %d %q, epoch %d", rec.Code, rec.Body.String(), rt.view.Current().Epoch)
	}
}

// TestRouterShardResponseCap: the router reads a shard's answer only up to
// its response cap. Two hostile replicas stream 32 MiB of whitespace as
// their answer to a frozen eval; the client gets a 413 over_capacity
// envelope, at most the cap, plus what the connection buffers, is taken
// from the replica asked before the router hangs up, and the other replica
// is not asked, since its frozen answer would be as large.
func TestRouterShardResponseCap(t *testing.T) {
	const hostile = 32 << 20
	var wrote, asked atomic.Int64
	hostileShard := func() *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			asked.Add(1)
			w.Header().Set("Content-Type", "application/json")
			chunk := bytes.Repeat([]byte{' '}, 64<<10)
			for n := int64(0); n < hostile; {
				k, err := w.Write(chunk)
				n += int64(k)
				wrote.Add(int64(k))
				if err != nil {
					return
				}
			}
		}))
	}
	a, b := hostileShard(), hostileShard()
	rt, err := NewRouter(Config{Shards: []string{a.URL, b.URL}, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/udfs/x/eval",
		strings.NewReader(`{"input":[{"type":"normal","mu":0.5,"sigma":0.1}],"learn":false}`)))
	a.Close() // waits for the handlers, so wrote and asked are final
	b.Close()
	var env wire.ErrorEnvelope
	if json.Unmarshal(rec.Body.Bytes(), &env) != nil || rec.Code != http.StatusRequestEntityTooLarge || env.Error.Code != wire.CodeOverCapacity {
		t.Errorf("hostile shard answer: %d, %d bytes %.200q, want 413 over_capacity", rec.Code, rec.Body.Len(), rec.Body.String())
	}
	if n := wrote.Load(); n >= hostile {
		t.Errorf("router took all %d bytes of the hostile answer, cap is %d", n, maxShardResponseBytes)
	}
	if n := asked.Load(); n != 1 {
		t.Errorf("%d replicas asked after an answer over the cap, want 1", n)
	}
}

// TestRouterRefusalEnvelopes pins the router's own refusals byte for byte:
// status, code, exact message and no backoff hint. The membership admin
// refuses a missing shard, an unknown op, a join of a member, a leave of a
// non-member and a leave of the last shard; a read no shard answers is a
// 502 unavailable.
func TestRouterRefusalEnvelopes(t *testing.T) {
	const dead = "http://127.0.0.1:1"
	rt, err := NewRouter(Config{Shards: []string{dead}})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	cases := []struct {
		label, method, path, body string
		status                    int
		code                      wire.ErrorCode
		message                   string
	}{
		{"members: no shard", "POST", "/v1/fleet/members", `{"op":"join"}`, 400, wire.CodeBadSpec,
			"members request needs a shard address"},
		{"members: bad op", "POST", "/v1/fleet/members", `{"op":"move","shard":"http://x"}`, 400, wire.CodeBadSpec,
			`op must be "join" or "leave", got "move"`},
		{"members: join of a member", "POST", "/v1/fleet/members", `{"op":"join","shard":"` + dead + `"}`, 409, wire.CodeAlreadyExists,
			`shard "` + dead + `" is already a member`},
		{"members: leave of a non-member", "POST", "/v1/fleet/members", `{"op":"leave","shard":"http://x"}`, 404, wire.CodeNotFound,
			`shard "http://x" is not a member`},
		{"members: leave of the last shard", "POST", "/v1/fleet/members", `{"op":"leave","shard":"` + dead + `"}`, 400, wire.CodeBadSpec,
			"cannot remove the last shard"},
		{"catalog: no shard reachable", "GET", "/v1/catalog", "", 502, wire.CodeUnavailable,
			"no shard reachable for catalog"},
		{"udfs: no shard reachable", "GET", "/v1/udfs", "", 502, wire.CodeUnavailable,
			"no shard reachable"},
	}
	for _, c := range cases {
		rec := httptest.NewRecorder()
		rt.Handler().ServeHTTP(rec, httptest.NewRequest(c.method, c.path, strings.NewReader(c.body)))
		var env wire.ErrorEnvelope
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || rec.Code != c.status || env.Error.Code != c.code ||
			env.Error.Message != c.message || env.Error.RetryAfterMS != 0 || rec.Header().Get("Retry-After") != "" {
			t.Errorf("%s: %d %q (Retry-After %q), want %d %s %q and no backoff hint",
				c.label, rec.Code, rec.Body.String(), rec.Header().Get("Retry-After"), c.status, c.code, c.message)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q", c.label, ct)
		}
	}
	if got := rt.view.Current().Epoch; got != 0 {
		t.Fatalf("refused membership requests minted epoch %d", got)
	}
}
