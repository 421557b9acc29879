package fleet

import (
	"encoding/json"
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
		_, pattern := rt.mux.Handler(req)
		if route.Scope == wire.ScopeShard {
			if pattern != "" {
				t.Errorf("shard-only route %s %s resolves on the router mux (pattern %q)",
					route.Method, route.Path, pattern)
			}
			continue
		}
		if pattern == "" {
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
