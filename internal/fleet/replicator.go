package fleet

import (
	"bytes"
	"context"
	"sync"
	"sync/atomic"
	"time"

	"olgapro/client"
	"olgapro/internal/core"
	"olgapro/internal/server"
	"olgapro/internal/server/wire"
)

// ReplicatorConfig parameterizes a shard's replication engine.
type ReplicatorConfig struct {
	// Self is this shard's own base URL; it is skipped as a peer and used
	// for ring-placement decisions.
	Self string
	// Shards are the boot-time fleet members' base URLs (including Self) —
	// membership epoch 0. A joining shard boots with just its own URL and
	// adopts the fleet's real membership from the router's join broadcast.
	Shards []string
	// Registry is this process's registry; fetched models are installed
	// through InstallReplica, and handoff flips run through Promote/Demote.
	Registry *server.Registry
	// Replicas is the replication factor: this shard pulls a UDF only when
	// ring placement makes it one of the UDF's replica set. Default 2.
	Replicas int
	// Interval is the retry backoff after a peer error and the failed-ingest
	// re-queue tick; deltas propagate faster than this because the peer
	// list call long-polls and wakes on every model-seq bump. Default 500ms.
	Interval time.Duration
	// AuthToken is the fleet bearer credential.
	AuthToken string
	// Logf, when non-nil, receives one line per replication event.
	Logf func(format string, args ...any)

	// fetch overrides snapshot fetching (test seam; nil uses the peer
	// client's FetchSnapshot).
	fetch func(ctx context.Context, peer *client.Client, name string, minSeq int64) (*client.FetchedSnapshot, error)
}

// retryKey identifies one failed ingest awaiting its tick-time retry.
type retryKey struct {
	addr string
	name string
}

// Replicator is a shard's fleet engine: it subscribes to every peer's
// registry and ingests models this shard should replicate, as versioned
// snapshot deltas ordered by per-UDF model sequence numbers (stale or
// duplicate deltas are no-ops, making the protocol idempotent and
// reordering-safe). Each peer's list call long-polls the peer's registry
// version, which advances on every model-seq bump, so a replica hears of a
// new seq within one round trip; that pull loop is the only propagation
// path. On top of it the replicator carries:
//
//   - dynamic membership: a MemberView holding the current epoch; epochs
//     gossip over the replication lists and arrive directly via
//     POST /v1/replication/members. Adopting a higher epoch rebuilds the
//     ring and restarts the pullers so re-placed names are re-delivered —
//     seq gating makes everything else a no-op, so only names whose
//     replica set actually changed are re-fetched.
//   - handoff: when the ring moves a UDF's ownership here, this shard keeps
//     pulling until it has caught up with the last advertised owner, then
//     confirms with one direct min_seq fetch (a 304 proves the owner's
//     writer-serialized state is not ahead) and promotes. The old owner
//     demotes only after seeing the new owner advertise ownership at a
//     model seq ≥ its own, so no learned point is ever dropped. Frozen
//     reads are safe throughout because frozen responses are a pure
//     function of (model seq, request bytes).
//   - repair: the tick-time retry queue re-attempts failed ingests without
//     waiting for the peer's next version bump.
type Replicator struct {
	cfg  ReplicatorConfig
	view *MemberView

	root   context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu         sync.Mutex
	pullCancel context.CancelFunc // current puller generation
	clients    *clients
	retries    map[retryKey]int64 // failed ingests → peer seq to retry
	lastOwner  map[string]string  // UDF name → last peer that advertised ownership
	ownerSeq   map[string]int64   // UDF name → that advert's model seq
	synced     map[string]bool    // peers listed at least once this epoch

	reconcileMu sync.Mutex // serializes promote/demote passes

	fetches atomic.Int64 // successful snapshot installs
}

// StartReplicator builds the membership view (epoch 0 = the boot shard
// list) and starts the puller and tick goroutines.
func StartReplicator(cfg ReplicatorConfig) (*Replicator, error) {
	view, err := NewMemberView(wire.Membership{Epoch: 0, Shards: cfg.Shards})
	if err != nil {
		return nil, err
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 2
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 500 * time.Millisecond
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	ctx, cancel := context.WithCancel(context.Background())
	r := &Replicator{
		cfg:       cfg,
		view:      view,
		root:      ctx,
		cancel:    cancel,
		clients:   newClients(1, cfg.AuthToken, nil),
		retries:   make(map[retryKey]int64),
		lastOwner: make(map[string]string),
		ownerSeq:  make(map[string]int64),
		synced:    make(map[string]bool),
	}
	r.mu.Lock()
	r.startPullersLocked()
	r.mu.Unlock()
	r.wg.Add(1)
	go r.tickLoop(ctx)
	return r, nil
}

// Close stops every goroutine and waits for them.
func (r *Replicator) Close() {
	r.cancel()
	r.wg.Wait()
}

// Membership returns the current membership (server hook).
func (r *Replicator) Membership() wire.Membership { return r.view.Current() }

// AdoptMembership offers a membership (server hook + router broadcast
// target). A strictly higher epoch rebuilds the ring and restarts the
// pullers from scratch so every peer's full list is re-delivered; per-UDF
// seq gating then turns everything whose placement did not change into
// no-ops.
func (r *Replicator) AdoptMembership(m wire.Membership) (bool, error) {
	changed, err := r.view.Adopt(m)
	if err != nil || !changed {
		return changed, err
	}
	cur := r.view.Current()
	r.cfg.Logf("membership: adopted epoch %d (%d shards)", cur.Epoch, len(cur.Shards))
	r.mu.Lock()
	r.synced = make(map[string]bool)
	r.startPullersLocked()
	r.mu.Unlock()
	return true, nil
}

// startPullersLocked (r.mu held) cancels the current puller generation and
// starts a fresh one per current member. Fresh pullers list from
// since_version=-1, so the full peer state is re-delivered after a
// membership change.
func (r *Replicator) startPullersLocked() {
	if r.pullCancel != nil {
		r.pullCancel()
	}
	ctx, cancel := context.WithCancel(r.root)
	r.pullCancel = cancel
	for _, addr := range r.view.Current().Shards {
		if addr == r.cfg.Self {
			continue
		}
		r.wg.Add(1)
		go r.pull(ctx, addr)
	}
}

// shouldReplicate reports whether ring placement puts the named UDF's
// replica set on this shard.
func (r *Replicator) shouldReplicate(name string) bool {
	for _, addr := range r.view.Ring().Replicas(name, r.cfg.Replicas) {
		if addr == r.cfg.Self {
			return true
		}
	}
	return false
}

// memberOf reports whether addr is in the current membership.
func (r *Replicator) memberOf(addr string) bool {
	for _, s := range r.view.Current().Shards {
		if s == addr {
			return true
		}
	}
	return false
}

// pull is one peer's subscription loop for one puller generation:
// long-poll the peer's replication list, adopt gossiped epochs, ingest
// newer models placed here, repeat.
func (r *Replicator) pull(ctx context.Context, addr string) {
	defer r.wg.Done()
	peer := r.clients.get(addr)
	since := int64(-1)
	for ctx.Err() == nil {
		list, err := peer.ReplicationList(ctx, since)
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			select {
			case <-time.After(r.cfg.Interval):
			case <-ctx.Done():
			}
			continue
		}
		since = list.Version
		if list.Epoch > r.view.Epoch() {
			if changed, err := r.AdoptMembership(wire.Membership{Epoch: list.Epoch, Shards: list.Shards}); err != nil {
				r.cfg.Logf("membership: adopt epoch %d from %s: %v", list.Epoch, addr, err)
			} else if changed {
				return // a fresh puller generation (including this peer) took over
			}
		}
		for _, st := range list.UDFs {
			r.observe(ctx, addr, peer, st)
		}
		r.mu.Lock()
		r.synced[addr] = true
		r.mu.Unlock()
		r.reconcile(ctx)
	}
}

// observe processes one advertised replica state from a peer: records
// ownership adverts, demotes a local stale owner once its successor has
// caught up, and ingests newer state placed here.
func (r *Replicator) observe(ctx context.Context, addr string, peer *client.Client, st wire.ReplicaState) {
	if st.Owned {
		r.mu.Lock()
		r.lastOwner[st.Name] = addr
		r.ownerSeq[st.Name] = st.Seq
		r.mu.Unlock()
	}
	if e, ok := r.cfg.Registry.Get(st.Name); ok && !e.Replica() {
		// Owned here. Demote when the ring moved ownership to this peer and
		// it has provably caught up: it advertises ownership at a model seq
		// ≥ ours, so every point we learned is in its model.
		if st.Owned && st.Seq >= e.Seq() && r.view.Ring().Owner(st.Name) == addr {
			if err := r.cfg.Registry.Demote(ctx, st.Name); err == nil {
				r.cfg.Logf("handoff: demoted %q (new owner %s @ seq %d)", st.Name, addr, st.Seq)
			}
		}
		return
	}
	if !r.shouldReplicate(st.Name) {
		return
	}
	if err := r.ingest(ctx, addr, peer, st.Name, st.Seq); err != nil && ctx.Err() == nil {
		r.cfg.Logf("replicate %q from %s: %v", st.Name, addr, err)
		r.mu.Lock()
		r.retries[retryKey{addr: addr, name: st.Name}] = st.Seq
		r.mu.Unlock()
	}
}

// fetchSnapshot applies the test seam.
func (r *Replicator) fetchSnapshot(ctx context.Context, peer *client.Client, name string, minSeq int64) (*client.FetchedSnapshot, error) {
	if r.cfg.fetch != nil {
		return r.cfg.fetch(ctx, peer, name, minSeq)
	}
	return peer.FetchSnapshot(ctx, name, minSeq)
}

// ingest fetches and installs one UDF's model when the peer is ahead.
func (r *Replicator) ingest(ctx context.Context, addr string, peer *client.Client, name string, peerSeq int64) error {
	localSeq := int64(-1)
	if e, ok := r.cfg.Registry.Get(name); ok {
		if !e.Replica() {
			return nil // owned here; never overwrite the writer
		}
		localSeq = e.Seq()
	}
	if peerSeq <= localSeq {
		return nil // already current
	}
	// A nil fetch means the peer regressed below min_seq between list and
	// fetch: nothing to install.
	_, err := r.install(ctx, addr, peer, name, localSeq+1)
	return err
}

// install fetches the named UDF from a peer when it is at minSeq or newer
// and installs it as a replica. It reports false, with no error, when the
// fetch comes back nil: the peer has nothing at minSeq or beyond.
func (r *Replicator) install(ctx context.Context, addr string, peer *client.Client, name string, minSeq int64) (bool, error) {
	fs, err := r.fetchSnapshot(ctx, peer, name, minSeq)
	if err != nil || fs == nil {
		return false, err
	}
	snap, err := core.ReadSnapshot(bytes.NewReader(fs.Data))
	if err != nil {
		return false, err
	}
	if err := r.cfg.Registry.InstallReplica(fs.Spec, snap); err != nil {
		return false, err
	}
	r.fetches.Add(1)
	r.cfg.Logf("replica %q ← %s @ seq %d (%d training points)", name, addr, snap.ModelSeq, len(snap.X))
	return true, nil
}

// tickLoop fires every Interval: failed ingests are re-attempted without
// waiting for the peer's next version bump (the long-poll would otherwise
// park until then), and the promote pass runs even when no list arrives.
func (r *Replicator) tickLoop(ctx context.Context) {
	defer r.wg.Done()
	t := time.NewTicker(r.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		r.retryFailed(ctx)
		r.reconcile(ctx)
	}
}

// retryFailed re-attempts every queued failed ingest.
func (r *Replicator) retryFailed(ctx context.Context) {
	r.mu.Lock()
	pending := make(map[retryKey]int64, len(r.retries))
	for k, seq := range r.retries {
		pending[k] = seq
	}
	r.mu.Unlock()
	for k, seq := range pending {
		if !r.shouldReplicate(k.name) || !r.memberOf(k.addr) {
			r.mu.Lock()
			delete(r.retries, k)
			r.mu.Unlock()
			continue
		}
		if err := r.ingest(ctx, k.addr, r.clients.get(k.addr), k.name, seq); err != nil {
			if ctx.Err() == nil {
				r.cfg.Logf("retry %q from %s: %v", k.name, k.addr, err)
			}
			continue
		}
		r.mu.Lock()
		delete(r.retries, k)
		r.mu.Unlock()
	}
}

// reconcile is the promote half of handoff: for every local replica whose
// ring owner is now this shard, promote once caught up with the departing
// owner (confirmed by a direct min_seq fetch answering 304 — the peer's
// writer-serialized state is not ahead), or immediately when no current
// member owns it (the owner left). Demotes happen in observe, where the
// successor's advert is in hand.
func (r *Replicator) reconcile(ctx context.Context) {
	r.reconcileMu.Lock()
	defer r.reconcileMu.Unlock()
	ring := r.view.Ring()
	for _, st := range r.cfg.Registry.ReplicationStates() {
		if st.Owned || ring.Owner(st.Name) != r.cfg.Self {
			continue
		}
		r.mu.Lock()
		owner, sawOwner := r.lastOwner[st.Name]
		oseq := r.ownerSeq[st.Name]
		allSynced := true
		for _, s := range r.view.Current().Shards {
			if s != r.cfg.Self && !r.synced[s] {
				allSynced = false
			}
		}
		r.mu.Unlock()
		if sawOwner && r.memberOf(owner) {
			if st.Seq < oseq {
				continue // still catching up; the pull loop closes the gap
			}
			installed, err := r.install(ctx, owner, r.clients.get(owner), st.Name, st.Seq+1)
			if err != nil {
				if ctx.Err() == nil {
					r.cfg.Logf("handoff: confirm %q with %s: %v", st.Name, owner, err)
				}
				continue // retry next tick
			}
			if installed {
				continue // the owner moved ahead of its last advert; re-check next pass
			}
		} else if !allSynced {
			// No owner in the current membership, but we have not heard from
			// every member this epoch yet — one of them may still own it.
			continue
		}
		if err := r.cfg.Registry.Promote(ctx, st.Name); err != nil {
			r.cfg.Logf("handoff: promote %q: %v", st.Name, err)
			continue
		}
		r.cfg.Logf("handoff: promoted %q @ seq %d (prior owner %q)", st.Name, st.Seq, owner)
	}
}
