package fleet

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"olgapro/client"
	"olgapro/internal/server"
)

// registerAndLearn seeds one learned UDF on a shard through its client and
// returns the owner's model seq.
func registerAndLearn(t *testing.T, cl *client.Client, name string) int64 {
	t.Helper()
	ctx := context.Background()
	if _, err := cl.Register(ctx, client.RegisterRequest{
		Name: name, UDF: "poly/smooth2d", Eps: 0.25, Delta: 0.1,
		Warmup: fleetInputs(6, 17), WarmupSeed: 7,
	}); err != nil {
		t.Fatalf("register %s: %v", name, err)
	}
	if _, _, err := cl.Stream(ctx, name, client.StreamOptions{Seed: 3}, fleetInputs(6, 23)); err != nil {
		t.Fatalf("learn %s: %v", name, err)
	}
	list, err := cl.ListUDFs(ctx)
	if err != nil || len(list.UDFs) == 0 {
		t.Fatalf("list after learn: %+v, %v", list, err)
	}
	for _, u := range list.UDFs {
		if u.Name == name {
			return u.ModelSeq
		}
	}
	t.Fatalf("%s not listed", name)
	return 0
}

// TestReplicatorRetriesFailedIngest is the regression test for the PR 8
// pull-loop bug where a failed ingest advanced since_version anyway and the
// replica stayed stale until the owner's next (possibly never) version
// bump: with a fetch that fails twice and a peer whose replication version
// stays frozen after the failure, the tick-time retry queue alone must
// converge the replica.
func TestReplicatorRetriesFailedIngest(t *testing.T) {
	sA, tsA := bootShard(t, server.Config{Workers: 1, RequestTimeout: time.Second})
	sB, tsB := bootShard(t, server.Config{Workers: 1, RequestTimeout: time.Second})
	_ = sA
	ctx := context.Background()
	clA := client.New(tsA.URL)

	addrs := []string{tsA.URL, tsB.URL}
	ring, err := NewRing(addrs, 0)
	if err != nil {
		t.Fatal(err)
	}
	name := ownedName(t, ring, tsA.URL)
	ownerSeq := registerAndLearn(t, clA, name)

	// The peer's replication version is frozen from here on: convergence can
	// only come from the re-queue, never from a fresh list delivery.
	verBefore, err := clA.ReplicationList(ctx, -1)
	if err != nil {
		t.Fatal(err)
	}

	var failuresLeft atomic.Int64
	failuresLeft.Store(2)
	var attempts atomic.Int64
	repl, err := StartReplicator(ReplicatorConfig{
		Self: tsB.URL, Shards: addrs, Registry: sB.Registry(),
		Replicas: 2, Interval: 25 * time.Millisecond,
		fetch: func(ctx context.Context, peer *client.Client, name string, minSeq int64) (*client.FetchedSnapshot, error) {
			attempts.Add(1)
			if failuresLeft.Add(-1) >= 0 {
				return nil, errors.New("injected fetch failure")
			}
			return peer.FetchSnapshot(ctx, name, minSeq)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer repl.Close()

	deadline := time.Now().Add(15 * time.Second)
	for {
		if e, ok := sB.Registry().Get(name); ok && e.Replica() && e.Seq() >= ownerSeq {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica did not converge past %d injected failures (attempts=%d)",
				2, attempts.Load())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := attempts.Load(); got < 3 {
		t.Fatalf("fetch attempts = %d, want ≥ 3 (2 failures + 1 success)", got)
	}
	if verAfter, err := clA.ReplicationList(ctx, -1); err != nil || verAfter.Version != verBefore.Version {
		t.Fatalf("peer version moved %d → %d (%v): retry was not the convergence path",
			verBefore.Version, verAfter.Version, err)
	}
}

// TestReplicatorIngestIdempotent pins the delta protocol's no-op paths:
// duplicate deltas, stale deltas, and a peer that regressed below min_seq
// (the fetch-returns-nil path) must all leave the replica's registry
// version, model seq, and entry identity untouched — no writer-loop swap.
func TestReplicatorIngestIdempotent(t *testing.T) {
	sA, tsA := bootShard(t, server.Config{Workers: 1, RequestTimeout: time.Second})
	sB, tsB := bootShard(t, server.Config{Workers: 1, RequestTimeout: time.Second})
	_ = sA
	ctx := context.Background()
	clA := client.New(tsA.URL)

	addrs := []string{tsA.URL, tsB.URL}
	ring, err := NewRing(addrs, 0)
	if err != nil {
		t.Fatal(err)
	}
	name := ownedName(t, ring, tsA.URL)
	ownerSeq := registerAndLearn(t, clA, name)

	// fetchMode 0 passes through; 1 simulates the peer regressing below
	// min_seq between the list and the fetch (FetchSnapshot's 304 → nil).
	var fetchMode atomic.Int32
	repl, err := StartReplicator(ReplicatorConfig{
		Self: tsB.URL, Shards: addrs, Registry: sB.Registry(),
		Replicas: 2, Interval: 25 * time.Millisecond,
		fetch: func(ctx context.Context, peer *client.Client, name string, minSeq int64) (*client.FetchedSnapshot, error) {
			if fetchMode.Load() == 1 {
				return nil, nil
			}
			return peer.FetchSnapshot(ctx, name, minSeq)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer repl.Close()

	deadline := time.Now().Add(15 * time.Second)
	for {
		if e, ok := sB.Registry().Get(name); ok && e.Replica() && e.Seq() >= ownerSeq {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("replica did not converge")
		}
		time.Sleep(10 * time.Millisecond)
	}

	entry, _ := sB.Registry().Get(name)
	verBefore := sB.Registry().Version()
	seqBefore := entry.Seq()
	fetchesBefore := repl.Fetches()
	peer := client.New(tsA.URL)

	// Duplicate delta: the peer re-advertises the seq we already hold.
	if err := repl.ingest(ctx, tsA.URL, peer, name, seqBefore); err != nil {
		t.Fatalf("duplicate delta: %v", err)
	}
	// Stale delta: an old advert arrives out of order.
	if err := repl.ingest(ctx, tsA.URL, peer, name, seqBefore-1); err != nil {
		t.Fatalf("stale delta: %v", err)
	}
	// Peer regressed below min_seq: the advert claims a newer seq but the
	// fetch comes back 304 — a no-op, not an error and not an install.
	fetchMode.Store(1)
	if err := repl.ingest(ctx, tsA.URL, peer, name, seqBefore+5); err != nil {
		t.Fatalf("regressed peer: %v", err)
	}
	fetchMode.Store(0)

	if got := repl.Fetches(); got != fetchesBefore {
		t.Fatalf("installs moved %d → %d on no-op deltas", fetchesBefore, got)
	}
	if got := sB.Registry().Version(); got != verBefore {
		t.Fatalf("registry version moved %d → %d on no-op deltas", verBefore, got)
	}
	after, ok := sB.Registry().Get(name)
	if !ok || after != entry {
		t.Fatal("entry identity changed: a no-op delta swapped the writer loop")
	}
	if got := after.Seq(); got != seqBefore {
		t.Fatalf("model seq moved %d → %d on no-op deltas", seqBefore, got)
	}
	if !after.Replica() {
		t.Fatal("replica flag flipped on no-op deltas")
	}
}

// TestReplicaCatchesUpWithinRoundTrip pins pull-only replication: with a
// 10s Interval, only the long-poll (which wakes on every model-seq bump)
// can deliver a new seq in time, so each catch-up must finish well under a
// second, and the owner must serve at most one snapshot GET per bump.
func TestReplicaCatchesUpWithinRoundTrip(t *testing.T) {
	var snapshotGETs [2]atomic.Int64
	srvs := make([]*server.Server, 2)
	addrs := make([]string, 2)
	for i := range srvs {
		s, err := server.New(server.Config{Workers: 1, RequestTimeout: time.Second})
		if err != nil {
			t.Fatal(err)
		}
		h, count := s.Handler(), &snapshotGETs[i]
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodGet && strings.HasSuffix(r.URL.Path, "/snapshot") {
				count.Add(1)
			}
			h.ServeHTTP(w, r)
		}))
		t.Cleanup(func() { ts.Close(); s.Close() })
		srvs[i], addrs[i] = s, ts.URL
	}
	for i, s := range srvs {
		repl, err := StartReplicator(ReplicatorConfig{
			Self: addrs[i], Shards: addrs, Registry: s.Registry(),
			Replicas: 2, Interval: 10 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer repl.Close()
		s.SetFleetHooks(&server.FleetHooks{
			Membership:      repl.Membership,
			AdoptMembership: repl.AdoptMembership,
		})
	}
	ring, err := NewRing(addrs, 0)
	if err != nil {
		t.Fatal(err)
	}
	name := ownedName(t, ring, addrs[0])
	owner, replica := srvs[0].Registry(), srvs[1].Registry()
	replicaSeq := func() int64 {
		if e, ok := replica.Get(name); ok {
			return e.Seq()
		}
		return -1
	}
	// waitFor sleeps on the replica registry's version, which every install
	// bumps, until the replica holds seq; it fails after 1s.
	waitFor := func(seq int64) time.Duration {
		start := time.Now()
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		for {
			ver := replica.Version()
			if replicaSeq() >= seq {
				return time.Since(start)
			}
			if replica.WaitReplication(ctx, ver); ctx.Err() != nil {
				t.Fatalf("replica still at seq %d, owner at %d, after 1s", replicaSeq(), seq)
			}
		}
	}

	// Learn tuples centred at fresh points 6 apart, so every learn adds
	// training points and moves the owner's seq.
	point := func(k int) client.InputSpec {
		return client.InputSpec{
			{Type: "normal", Mu: 6 * float64(k), Sigma: 0.05},
			{Type: "normal", Mu: 0, Sigma: 0.05},
		}
	}
	ctx := context.Background()
	cl := client.New(addrs[0])
	if _, err := cl.Register(ctx, client.RegisterRequest{
		Name: name, UDF: "poly/smooth2d", Eps: 0.2, Delta: 0.1,
		Warmup: []client.InputSpec{point(-1)}, WarmupSeed: 3,
	}); err != nil {
		t.Fatal(err)
	}
	entry, _ := owner.Get(name)
	waitFor(entry.Seq())
	getsBefore := snapshotGETs[0].Load()

	const learns = 12
	var slowest time.Duration
	for k := 0; k < learns; k++ {
		before := entry.Seq()
		if _, err := cl.Eval(ctx, name, client.EvalRequest{Input: point(k), Seed: int64(k + 1)}); err != nil {
			t.Fatalf("learn %d: %v", k, err)
		}
		after := entry.Seq()
		if after == before {
			t.Fatalf("learn %d left the owner's model seq at %d", k, after)
		}
		slowest = max(slowest, waitFor(after))
	}
	// Let any second fetch of the last bump land before counting.
	time.Sleep(100 * time.Millisecond)
	gets := snapshotGETs[0].Load() - getsBefore
	t.Logf("%d bumps, %d owner snapshot GETs, slowest catch-up %v", learns, gets, slowest)
	if gets > learns {
		t.Fatalf("owner served %d snapshot GETs for %d model-seq bumps, want at most one per bump", gets, learns)
	}
	if n := snapshotGETs[1].Load(); n != 0 {
		t.Fatalf("the replica served %d snapshot GETs for a UDF it does not own", n)
	}
}
