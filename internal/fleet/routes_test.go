package fleet

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
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
	for _, path := range []string{"/v1/udfs", "/v1/udfs/x/eval", "/v1/query", "/v1/fleet/members"} {
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
