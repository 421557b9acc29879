package fleet

// Dynamic fleet membership. A Membership (wire.Membership) is a monotonic
// epoch number plus the shard list it describes; the epoch totally orders
// fleet configurations. The router mints new epochs through its
// POST /v1/fleet/members admin endpoint and broadcasts them; every shard
// also attaches its current epoch to its replication-list responses, so
// membership gossips over the same long-poll surface the model deltas use
// and any member the broadcast missed converges on its next pull.
//
// MemberView is the process-local holder of the current membership: it owns
// the placement ring, rebuilds it on adoption, and keeps the previous
// epoch's ring so frozen reads can fall back to the old replica set during
// a handoff window (safe because frozen responses are a pure function of
// (model seq, request bytes) — an old-placement replica at the same model
// sequence serves the same bytes).

import (
	"sort"
	"strings"
	"sync"

	"olgapro/internal/server/wire"
)

// ParseShards splits a comma-separated list of shard base URLs, the form
// of olgaprod's -fleet and olgarouter's -shards, dropping blank entries.
func ParseShards(list string) []string {
	var shards []string
	for _, s := range strings.Split(list, ",") {
		if s = strings.TrimSpace(s); s != "" {
			shards = append(shards, s)
		}
	}
	return shards
}

// MemberView holds a process's current fleet membership and the placement
// ring derived from it. All methods are safe for concurrent use.
type MemberView struct {
	mu   sync.RWMutex
	cur  wire.Membership
	ring *Ring
	prev *Ring // previous epoch's ring; nil until the first adoption
}

// NewMemberView builds a view over the boot-time membership. The shard list
// is sorted (placement is order-insensitive, but a canonical order keeps
// every member's advertised list byte-identical). Every view places with
// the ring's default virtual-node count, so routers and shards agree.
func NewMemberView(m wire.Membership) (*MemberView, error) {
	shards := append([]string(nil), m.Shards...)
	sort.Strings(shards)
	ring, err := NewRing(shards, 0)
	if err != nil {
		return nil, err
	}
	return &MemberView{
		cur:  wire.Membership{Epoch: m.Epoch, Shards: shards},
		ring: ring,
	}, nil
}

// Current returns the membership this view holds (shard list is a copy).
func (v *MemberView) Current() wire.Membership {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return wire.Membership{Epoch: v.cur.Epoch, Shards: append([]string(nil), v.cur.Shards...)}
}

// Epoch returns the current membership epoch.
func (v *MemberView) Epoch() int64 {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.cur.Epoch
}

// Ring returns the current placement ring.
func (v *MemberView) Ring() *Ring {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.ring
}

// Rings returns the current ring plus the previous epoch's ring (nil before
// the first membership change) — the fallback candidates for frozen reads
// during a handoff window.
func (v *MemberView) Rings() (cur, prev *Ring) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.ring, v.prev
}

// Adopt installs m when its epoch is strictly higher than the current one,
// rebuilding the ring and retaining the old ring as the handoff fallback.
// Equal or lower epochs are ignored (epochs are minted by one admin point,
// the router, so two distinct memberships never share an epoch). Returns
// whether the view changed; an invalid shard list is reported without
// changing the view.
func (v *MemberView) Adopt(m wire.Membership) (bool, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if m.Epoch <= v.cur.Epoch {
		return false, nil
	}
	shards := append([]string(nil), m.Shards...)
	sort.Strings(shards)
	ring, err := NewRing(shards, 0)
	if err != nil {
		return false, err
	}
	v.prev = v.ring
	v.ring = ring
	v.cur = wire.Membership{Epoch: m.Epoch, Shards: shards}
	return true, nil
}
