package fleet

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"olgapro/client"
	"olgapro/internal/server"
)

// This file is the deterministic fleet chaos harness: a seeded splitmix64
// schedule of kills, restarts, joins, leaves, learn bursts, and frozen
// replays over in-process shards behind stable-URL proxies, with every learn
// mirrored onto a single-shard reference server. After every event the
// fleet must reconverge (replicas caught up, exactly one owner per UDF),
// and frozen replays through the router must stay byte-identical to the
// reference — the invariant that frozen responses are a pure function of
// (model seq, request bytes), preserved across arbitrary membership churn.
// The schedule is a pure function of chaosSeed, so a failure replays
// exactly; timing varies between runs, outcomes do not.

const chaosSeed = 0xC0FFEE

// chaosRNG is splitmix64 (the ring's mix64 finalizer over a Weyl sequence).
type chaosRNG struct{ state uint64 }

func (c *chaosRNG) next() uint64 {
	c.state += 0x9e3779b97f4a7c15
	return mix64(c.state)
}

func (c *chaosRNG) intn(n int) int { return int(c.next() % uint64(n)) }

// chaosSlot is one stable shard address: an httptest proxy whose URL
// survives the shard process behind it being killed and restarted.
// A nil handler aborts the connection, which is what a dead process
// looks like to its peers.
type chaosSlot struct {
	ts      *httptest.Server
	handler atomic.Pointer[http.Handler]
}

func newChaosSlot() *chaosSlot {
	s := &chaosSlot{}
	s.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h := s.handler.Load()
		if h == nil {
			panic(http.ErrAbortHandler)
		}
		(*h).ServeHTTP(w, r)
	}))
	return s
}

// chaosShard is one live shard process: server + replicator behind a slot.
type chaosShard struct {
	slot *chaosSlot
	srv  *server.Server
	repl *Replicator
}

type chaosHarness struct {
	t   *testing.T
	ctx context.Context
	rng *chaosRNG

	router   *Router
	routerTS *httptest.Server
	rcl      *client.Client // fleet surface via the router

	refSrv *server.Server // single-shard reference
	refTS  *httptest.Server
	refCl  *client.Client

	slots    []*chaosSlot // fixed address pool; index nextSlot..end unused
	nextSlot int
	members  map[string]*chaosShard // membership URL → shard (dead included)
	dead     string                 // the (at most one) killed member's URL

	names    []string
	frozenIn []client.InputSpec

	closeOnce sync.Once
}

// spawn boots a shard process behind the slot with the given boot
// membership and registers it in the member map.
func (h *chaosHarness) spawn(slot *chaosSlot, bootShards []string) *chaosShard {
	h.t.Helper()
	srv, err := server.New(server.Config{Workers: 2, RequestTimeout: time.Second})
	if err != nil {
		h.t.Fatal(err)
	}
	repl, err := StartReplicator(ReplicatorConfig{
		Self: slot.ts.URL, Shards: bootShards, Registry: srv.Registry(),
		Replicas: 2, Interval: 25 * time.Millisecond,
	})
	if err != nil {
		h.t.Fatal(err)
	}
	srv.SetFleetHooks(&server.FleetHooks{
		Membership:      repl.Membership,
		AdoptMembership: repl.AdoptMembership,
	})
	handler := srv.Handler()
	slot.handler.Store(&handler)
	sh := &chaosShard{slot: slot, srv: srv, repl: repl}
	h.members[slot.ts.URL] = sh
	return sh
}

// stop kills the process behind a shard (slot and URL survive).
func stopShard(sh *chaosShard) {
	sh.slot.handler.Store(nil)
	if sh.repl != nil {
		sh.repl.Close()
		sh.repl = nil
	}
	if sh.srv != nil {
		sh.srv.Close()
		sh.srv = nil
	}
}

func (h *chaosHarness) memberURLs() []string {
	urls := make([]string, 0, len(h.members))
	for u := range h.members {
		urls = append(urls, u)
	}
	return urls
}

func (h *chaosHarness) ring() *Ring {
	ring, err := NewRing(h.memberURLs(), 0)
	if err != nil {
		h.t.Fatal(err)
	}
	return ring
}

// converged reports whether every UDF has settled under the current
// membership: every live placed shard holds the newest model seq, the ring
// owner (when alive) is promoted, and nobody else claims ownership.
func (h *chaosHarness) converged() bool {
	ring := h.ring()
	for _, name := range h.names {
		owner := ring.Owner(name)
		placed := ring.Replicas(name, 2)
		expected := int64(-1)
		for _, u := range placed {
			if u == h.dead {
				continue
			}
			if e, ok := h.members[u].srv.Registry().Get(name); ok && e.Seq() > expected {
				expected = e.Seq()
			}
		}
		if expected < 0 {
			return false // no live placed shard holds the model yet
		}
		for _, u := range placed {
			if u == h.dead {
				continue
			}
			e, ok := h.members[u].srv.Registry().Get(name)
			if !ok || e.Seq() < expected {
				return false
			}
			if u == owner {
				if e.Replica() {
					return false // promotion pending
				}
			} else if !e.Replica() {
				return false // demotion pending
			}
		}
		// No live non-owner member may still claim ownership (stale owner
		// from before a rebalance).
		for u, sh := range h.members {
			if u == h.dead || u == owner {
				continue
			}
			if e, ok := sh.srv.Registry().Get(name); ok && !e.Replica() {
				return false
			}
		}
	}
	return true
}

func (h *chaosHarness) describe() string {
	var b bytes.Buffer
	ring := h.ring()
	fmt.Fprintf(&b, "members=%v dead=%q router_epoch=%d\n", h.memberURLs(), h.dead, h.router.Membership().Epoch)
	for _, name := range h.names {
		fmt.Fprintf(&b, "  %s owner=%s placed=%v:", name, ring.Owner(name), ring.Replicas(name, 2))
		for u, sh := range h.members {
			if u == h.dead {
				fmt.Fprintf(&b, " %s=dead", u)
				continue
			}
			if e, ok := sh.srv.Registry().Get(name); ok {
				fmt.Fprintf(&b, " %s=seq%d,replica=%v", u, e.Seq(), e.Replica())
			} else {
				fmt.Fprintf(&b, " %s=absent", u)
			}
		}
		fmt.Fprintf(&b, " epochs:")
		for u, sh := range h.members {
			if u != h.dead {
				fmt.Fprintf(&b, " %s=%d", u, sh.repl.View().Epoch())
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

func (h *chaosHarness) waitConverged(event string) {
	h.t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !h.converged() {
		if time.Now().After(deadline) {
			h.t.Fatalf("fleet did not reconverge after %s:\n%s", event, h.describe())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// learn streams a small learning burst for one rng-chosen UDF through the
// router, mirroring it onto the reference — unless the owner is dead, in
// which case the fleet must refuse it (and the reference learns nothing).
// Learn results are compared structurally, not byte-wise: after a handoff
// the new owner's tuning evaluator was restored from a snapshot, whose
// incremental factorization differs from the reference's never-restored
// one in the last ulps. The model STATE (support set, hyperparameters)
// must still evolve identically — that is what frozenCheck pins byte-wise.
func (h *chaosHarness) learn(i int) {
	h.t.Helper()
	name := h.names[h.rng.intn(len(h.names))]
	inputs := fleetInputs(2, int64(i)*7919+13)
	seed := int64(i%97 + 1)
	res, _, err := h.rcl.Stream(h.ctx, name, client.StreamOptions{Seed: seed}, inputs)
	if owner := h.ring().Owner(name); owner == h.dead {
		if err == nil {
			h.t.Fatalf("event %d: learn on %s accepted though owner %s is dead", i, name, owner)
		}
		return
	}
	if err != nil {
		h.t.Fatalf("event %d: learn %s via router: %v\n%s", i, name, err, h.describe())
	}
	ref, _, err := h.refCl.Stream(h.ctx, name, client.StreamOptions{Seed: seed}, inputs)
	if err != nil {
		h.t.Fatalf("event %d: learn %s on reference: %v", i, name, err)
	}
	if len(res) != len(ref) {
		h.t.Fatalf("event %d: learn %s: %d results vs %d on reference", i, name, len(res), len(ref))
	}
	for j := range res {
		if res[j].Error != "" || ref[j].Error != "" {
			h.t.Fatalf("event %d: learn %s line %d errored: %q / %q", i, name, j, res[j].Error, ref[j].Error)
		}
		if res[j].Seq != ref[j].Seq || res[j].PointsAdded != ref[j].PointsAdded ||
			res[j].LocalPoints != ref[j].LocalPoints || !res[j].MetBudget || !ref[j].MetBudget {
			h.t.Fatalf("event %d: learn %s line %d drifted from reference:\nfleet %+v\nref   %+v",
				i, name, j, res[j].EvalResult, ref[j].EvalResult)
		}
	}
	h.waitConverged(fmt.Sprintf("learn %s (event %d)", name, i))
}

// frozenCheck replays every UDF frozen through the router and byte-compares
// against the single-shard reference.
func (h *chaosHarness) frozenCheck(i int) {
	h.t.Helper()
	h.waitConverged(fmt.Sprintf("pre-frozen (event %d)", i))
	for _, name := range h.names {
		_, raw, err := h.rcl.Stream(h.ctx, name, client.StreamOptions{Frozen: true, Seed: 99}, h.frozenIn)
		if err != nil {
			h.t.Fatalf("event %d: frozen %s via router: %v\n%s", i, name, err, h.describe())
		}
		_, ref, err := h.refCl.Stream(h.ctx, name, client.StreamOptions{Frozen: true, Seed: 99}, h.frozenIn)
		if err != nil {
			h.t.Fatalf("event %d: frozen %s on reference: %v", i, name, err)
		}
		if !bytes.Equal(raw, ref) {
			h.t.Fatalf("event %d: frozen replay of %s diverged from reference:\n%s\nvs\n%s\n%s",
				i, name, raw, ref, h.describe())
		}
	}
}

func (h *chaosHarness) kill(i int) {
	h.t.Helper()
	urls := h.memberURLs()
	victim := urls[h.rng.intn(len(urls))]
	stopShard(h.members[victim])
	h.dead = victim
}

func (h *chaosHarness) restart(i int) {
	h.t.Helper()
	victim := h.dead
	// An operator restarting a shard boots it with the membership it knows;
	// any newer epoch reaches it through gossip on the replication lists.
	sh := h.spawn(h.members[victim].slot, h.memberURLs())
	h.members[victim] = sh
	h.dead = ""
	h.waitConverged(fmt.Sprintf("restart %s (event %d)", victim, i))
}

func (h *chaosHarness) join(i int) {
	h.t.Helper()
	slot := h.slots[h.nextSlot]
	h.nextSlot++
	// The documented join procedure: the new shard boots knowing only
	// itself; the router's join broadcast delivers the real membership.
	h.spawn(slot, []string{slot.ts.URL})
	if _, err := h.rcl.FleetMembers(h.ctx, client.FleetMembersRequest{Op: "join", Shard: slot.ts.URL}); err != nil {
		h.t.Fatalf("event %d: join %s: %v", i, slot.ts.URL, err)
	}
	h.waitConverged(fmt.Sprintf("join %s (event %d)", slot.ts.URL, i))
}

func (h *chaosHarness) leave(i int) {
	h.t.Helper()
	// Removing the dead member is the operational fix for a lost shard;
	// otherwise evict an rng-chosen live one.
	victim := h.dead
	if victim == "" {
		urls := h.memberURLs()
		victim = urls[h.rng.intn(len(urls))]
	}
	sh := h.members[victim]
	if _, err := h.rcl.FleetMembers(h.ctx, client.FleetMembersRequest{Op: "leave", Shard: victim}); err != nil {
		h.t.Fatalf("event %d: leave %s: %v", i, victim, err)
	}
	delete(h.members, victim)
	if victim == h.dead {
		h.dead = ""
	}
	// The departed shard keeps serving frozen reads (the router's previous-
	// epoch fallback) until the new placement has fully converged.
	h.waitConverged(fmt.Sprintf("leave %s (event %d)", victim, i))
	stopShard(sh)
}

func (h *chaosHarness) teardown() {
	h.closeOnce.Do(func() {
		for _, sh := range h.members {
			stopShard(sh)
		}
		if h.router != nil {
			h.router.Close()
		}
		if h.routerTS != nil {
			h.routerTS.Close()
		}
		if h.refSrv != nil {
			h.refSrv.Close()
		}
		if h.refTS != nil {
			h.refTS.Close()
		}
		for _, s := range h.slots {
			s.ts.Close()
		}
		if tr, ok := http.DefaultTransport.(*http.Transport); ok {
			tr.CloseIdleConnections()
		}
	})
}

// TestFleetChaosHarness runs the seeded 200-event chaos schedule.
func TestFleetChaosHarness(t *testing.T) {
	baseline := runtime.NumGoroutine()

	h := &chaosHarness{
		t:        t,
		ctx:      context.Background(),
		rng:      &chaosRNG{state: chaosSeed},
		members:  make(map[string]*chaosShard),
		names:    []string{"chaos-a", "chaos-b", "chaos-c"},
		frozenIn: fleetInputs(4, 101),
	}
	t.Cleanup(h.teardown)

	// Address pool: 3 boot members + room for joins.
	for i := 0; i < 8; i++ {
		h.slots = append(h.slots, newChaosSlot())
	}
	boot := []string{h.slots[0].ts.URL, h.slots[1].ts.URL, h.slots[2].ts.URL}
	h.nextSlot = 3
	for i := 0; i < 3; i++ {
		h.spawn(h.slots[i], boot)
	}

	rt, err := NewRouter(Config{
		Shards: boot, Replicas: 2,
		Cooldown: 25 * time.Millisecond, GossipInterval: 25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	h.router = rt
	h.routerTS = httptest.NewServer(rt.Handler())
	h.rcl = client.New(h.routerTS.URL)

	h.refSrv, h.refTS = bootShard(t, server.Config{Workers: 2, RequestTimeout: time.Second})
	h.refCl = client.New(h.refTS.URL)

	// Register the working set through the router and identically on the
	// reference; both learn the same warmup, so the models start equal.
	for i, name := range h.names {
		req := client.RegisterRequest{
			Name: name, UDF: "poly/smooth2d", Eps: 0.25, Delta: 0.1,
			Warmup: fleetInputs(4, int64(11+i)), WarmupSeed: 7,
		}
		if _, err := h.rcl.Register(h.ctx, req); err != nil {
			t.Fatalf("register %s via router: %v", name, err)
		}
		if _, err := h.refCl.Register(h.ctx, req); err != nil {
			t.Fatalf("register %s on reference: %v", name, err)
		}
	}
	h.waitConverged("initial replication")
	h.frozenCheck(-1)

	const events = 200
	for i := 0; i < events; i++ {
		switch op := h.rng.intn(100); {
		case op < 40:
			h.learn(i)
		case op < 55:
			h.frozenCheck(i)
		case op < 70:
			if h.dead != "" {
				h.restart(i)
			} else if len(h.members) >= 3 {
				h.kill(i)
			} else {
				h.learn(i)
			}
		case op < 80:
			if h.dead == "" && h.nextSlot < len(h.slots) {
				h.join(i)
			} else {
				h.learn(i)
			}
		case op < 90:
			if len(h.members) > 2 {
				h.leave(i)
			} else {
				h.learn(i)
			}
		default:
			h.frozenCheck(i)
		}
	}

	// Settle: revive any dead member, final byte check.
	if h.dead != "" {
		h.restart(events)
	}
	h.frozenCheck(events)

	// Zero goroutine leaks: with every shard, router, and proxy closed, the
	// count must return to the pre-test baseline.
	h.teardown()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline+2 {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d now vs %d at start\n%s",
				runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(50 * time.Millisecond)
	}
}
