package server

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"olgapro/internal/server/wire"
)

// FuzzQueryMerge feeds a plan's stage specs and one to three hostile
// /v1/query/partials bodies into RunQuery's merge: one relation row per
// body, each naming its own instance, whose fetch returns that body. The
// merge must never panic, and must either refuse or return an answer that
// encodes — a shard's partial state is untrusted input to the router. The
// seed corpus holds real partials for each first-stage kind plus a group
// whose avg aggregate observed no tuple.
func FuzzQueryMerge(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec, p0, p1, p2 string) {
		var req wire.QueryRequest
		if err := json.Unmarshal([]byte(spec), &req); err != nil {
			t.Skip("spec is not a query request")
		}
		parts := map[string]*wire.QueryPartials{}
		req.Rows = nil
		for i, body := range []string{p0, p1, p2} {
			if i > 0 && body == "" {
				break
			}
			var qp wire.QueryPartials
			if err := json.Unmarshal([]byte(body), &qp); err != nil {
				t.Skip("partials body does not decode")
			}
			name := fmt.Sprintf("p%d", i)
			parts[name] = &qp
			req.Rows = append(req.Rows, wire.QueryRow{UDF: name})
		}
		fetch := func(_ context.Context, sub *wire.QueryPartialsRequest) (*wire.QueryPartials, error) {
			return parts[sub.UDF], nil
		}
		resp, _, err := RunQuery(context.Background(), &req, fetch)
		if err != nil {
			return
		}
		if _, err := json.Marshal(resp); err != nil {
			t.Fatalf("merged answer does not encode: %v", err)
		}
	})
}
