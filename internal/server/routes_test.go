package server

import (
	"net/http/httptest"
	"strings"
	"testing"

	"olgapro/internal/server/wire"
)

// TestMuxCoversCanonicalRoutes pins the shard mux to wire.Routes: every
// shard-scoped entry must resolve to a registered handler, and
// router-only entries must not — the shard cannot quietly grow or drop
// surface relative to the canonical table.
func TestMuxCoversCanonicalRoutes(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, rt := range wire.Routes {
		req := httptest.NewRequest(rt.Method, strings.ReplaceAll(rt.Path, "{name}", "x"), nil)
		// The catch-all "/" answers the not_found envelope: a route that
		// resolves only to it is not registered.
		_, pattern := s.mux.Handler(req)
		if rt.Scope == wire.ScopeRouter {
			if pattern != "/" {
				t.Errorf("router-only route %s %s resolves on the shard mux (pattern %q)",
					rt.Method, rt.Path, pattern)
			}
			continue
		}
		if pattern == "/" {
			t.Errorf("route %s %s does not resolve on the shard mux", rt.Method, rt.Path)
		}
	}
}
