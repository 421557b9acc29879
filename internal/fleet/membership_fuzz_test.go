package fleet

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"olgapro/internal/server"
	"olgapro/internal/server/wire"
)

// FuzzMembershipPost sends arbitrary bytes as a POST
// /v1/replication/members body, the membership gossip a router broadcasts,
// through a fleet-mode shard's handler. The shard adopts through a
// MemberView, the rule its replicator adopts by, without the replicator's
// pullers, so no fuzzed shard address is ever dialed. The handler must
// never panic, and must answer either 200 with the membership it holds or
// a /v1 error envelope whose code is in wire.ErrorCodes. The seed corpus
// holds a join, a stale epoch, duplicate and empty shard lists, null,
// case-variant and unknown keys, and trailing bytes.
func FuzzMembershipPost(f *testing.F) {
	s, err := server.New(server.Config{})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(s.Close)
	view, err := NewMemberView(wire.Membership{Shards: []string{"http://127.0.0.1:1"}})
	if err != nil {
		f.Fatal(err)
	}
	s.SetFleetHooks(&server.FleetHooks{Membership: view.Current, AdoptMembership: view.Adopt})
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/replication/members", bytes.NewReader(body)))
		if rec.Code == http.StatusOK {
			var m wire.Membership
			if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil || len(m.Shards) == 0 {
				t.Fatalf("200 answer is not a membership: %v: %s", err, rec.Body)
			}
			return
		}
		var env wire.ErrorEnvelope
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || !slices.Contains(wire.ErrorCodes, env.Error.Code) {
			t.Fatalf("%d answer is not a /v1 error envelope with a known code: %s", rec.Code, rec.Body)
		}
	})
}
