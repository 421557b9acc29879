package server

// Shard-side replication endpoints. A replica shard discovers what its
// peers host with GET /v1/replication/udfs — passing the last seen
// ?since_version= long-polls until the peer's registry mutates or the
// request deadline fires, so subscription costs one idle connection instead
// of a tight poll loop — and pulls models with GET /v1/udfs/{name}/snapshot,
// which serializes the live evaluator (never a stale disk file) stamped
// with its model sequence. ?min_seq=N answers 304 when the shard has
// nothing the replica doesn't: monotonic sequence numbers make "is this
// newer" a single integer comparison.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strconv"

	"olgapro/internal/server/wire"
)

// handleReplicationList serves the shard's hosted-UDF list, long-polling
// under the request deadline when ?since_version= matches the current
// registry version.
func (s *Server) handleReplicationList(w http.ResponseWriter, r *http.Request, q url.Values) {
	since := int64(-1)
	if v := q.Get("since_version"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			WriteError(w, Errorf(http.StatusBadRequest, wire.CodeBadSpec, "bad since_version %q", v))
			return
		}
		since = n
	}
	ver := s.reg.WaitReplication(r.Context(), since)
	list := wire.ReplicationList{
		Version: ver,
		UDFs:    s.reg.ReplicationStates(),
	}
	// In fleet mode the list doubles as membership gossip: the shard's
	// current epoch rides along, so any member a membership broadcast
	// missed converges on its next pull.
	if h := s.fleet.Load(); h != nil && h.Membership != nil {
		m := h.Membership()
		list.Epoch = m.Epoch
		list.Shards = m.Shards
	}
	WriteJSON(w, http.StatusOK, list)
}

// handleMembershipGet reports the shard's current membership view.
func (s *Server) handleMembershipGet(w http.ResponseWriter, r *http.Request) {
	h := s.fleet.Load()
	if h == nil || h.Membership == nil {
		WriteError(w, Errorf(http.StatusServiceUnavailable, wire.CodeNotReplicated, "not running in fleet mode"))
		return
	}
	WriteJSON(w, http.StatusOK, h.Membership())
}

// handleMembershipPost offers the shard a membership; a strictly higher
// epoch is adopted (ring rebuild + re-pull of re-placed names), anything
// else is ignored. Responds with the membership the shard holds afterwards,
// so the caller learns the winning epoch either way.
func (s *Server) handleMembershipPost(w http.ResponseWriter, r *http.Request) {
	h := s.fleet.Load()
	if h == nil || h.AdoptMembership == nil || h.Membership == nil {
		WriteError(w, Errorf(http.StatusServiceUnavailable, wire.CodeNotReplicated, "not running in fleet mode"))
		return
	}
	var m wire.Membership
	if err := DecodeBody(r, "membership", &m); err != nil {
		WriteError(w, err)
		return
	}
	if _, err := h.AdoptMembership(m); err != nil {
		WriteError(w, Errorf(http.StatusBadRequest, wire.CodeBadSpec, "adopt membership: %v", err))
		return
	}
	WriteJSON(w, http.StatusOK, h.Membership())
}

// handleSnapshotFetch serves the named UDF's current model as raw versioned
// snapshot bytes, with the model sequence and registration spec in response
// headers so a replica can install it without a second round trip.
func (s *Server) handleSnapshotFetch(w http.ResponseWriter, r *http.Request, q url.Values) {
	e, ok := s.entryFor(w, r)
	if !ok {
		return
	}
	minSeq := int64(-1)
	if v := q.Get("min_seq"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			WriteError(w, Errorf(http.StatusBadRequest, wire.CodeBadSpec, "bad min_seq %q", v))
			return
		}
		minSeq = n
	}
	if minSeq >= 0 && e.Seq() < minSeq {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	data, _, seq, err := e.snapshot()
	if err != nil {
		WriteError(w, fmt.Errorf("snapshot %q: %w", e.spec.Name, err))
		return
	}
	if minSeq >= 0 && seq < minSeq {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	specJSON, err := json.Marshal(e.Spec())
	if err != nil {
		WriteError(w, Errorf(http.StatusInternalServerError, wire.CodeInternal, "encode spec: %v", err))
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(wire.HeaderModelSeq, strconv.FormatInt(seq, 10))
	w.Header().Set(wire.HeaderSpec, string(specJSON))
	w.Write(data)
}
