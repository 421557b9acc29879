package fleet

// Perf-trajectory benchmarks: every Benchmark_<name> here is one row
// <name> of the BENCH_*.json files (`make bench-json` selects them with
// -bench '^Benchmark_'). Their timings depend on the host scheduler and
// loopback stack, so fleet_* is exempt from the ns/op gate; allocs/op
// stays gated.

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"testing"
	"time"

	"olgapro/client"
	"olgapro/internal/server"
)

// lagBatch is how many fleet_learn_replicated ops run on one fleet before
// the loop boots a fresh one, timer stopped. Learning is deterministic, and
// each batch learns the same fresh points with the same seeds, so every
// batch moves the owner's model seq the same way; the model and the
// replication list stay small however large b.N grows.
const lagBatch = 8

// lagPoint is the j-th fresh learn input of a batch: points 6 apart on a
// line, far enough from everything learned before that each adds training
// points.
func lagPoint(j int) client.InputSpec {
	return client.InputSpec{
		{Type: "normal", Mu: 6 * float64(j), Sigma: 0.05},
		{Type: "normal", Mu: 0, Sigma: 0.05},
	}
}

// lagFleet is an in-process owner + replica pair hosting one instance.
type lagFleet struct {
	owner    *client.Client
	ownerSeq func() int64
	replica  *server.Registry
	close    func()
}

// bootLagFleet boots two shards, each with its replication engine, and
// registers the "lag" instance on its ring owner; it returns once the
// replica holds the registered model.
func bootLagFleet(b *testing.B) *lagFleet {
	var closers []func()
	f := &lagFleet{close: func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}}
	srvs := make([]*server.Server, 2)
	addrs := make([]string, 2)
	for i := range srvs {
		s, err := server.New(server.Config{Workers: 1, MaxInFlight: 64})
		if err != nil {
			b.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		closers = append(closers, func() { ts.Close(); s.Close() })
		srvs[i], addrs[i] = s, ts.URL
	}
	for i, s := range srvs {
		repl, err := StartReplicator(ReplicatorConfig{
			Self: addrs[i], Shards: addrs, Registry: s.Registry(),
			Replicas: 2, Interval: 500 * time.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		closers = append(closers, repl.Close)
		s.SetFleetHooks(&server.FleetHooks{
			Membership:      repl.Membership,
			AdoptMembership: repl.AdoptMembership,
		})
	}
	// httptest ports are random, so either shard may own "lag": register
	// on the ring owner (registering elsewhere would get the registrant
	// demoted once the owner catches up).
	ring, err := NewRing(addrs, 0)
	if err != nil {
		b.Fatal(err)
	}
	owner, replica := 0, 1
	if ring.Owner("lag") == addrs[1] {
		owner, replica = 1, 0
	}
	f.owner = client.New(addrs[owner])
	if _, err := f.owner.Register(context.Background(), client.RegisterRequest{
		UDF: "poly/smooth2d", Name: "lag", Eps: 0.2, Delta: 0.1,
		Warmup: []client.InputSpec{lagPoint(-1)}, WarmupSeed: 3,
	}); err != nil {
		b.Fatalf("register: %v", err)
	}
	e, _ := srvs[owner].Registry().Get("lag")
	f.ownerSeq, f.replica = e.Seq, srvs[replica].Registry()
	f.waitReplica(f.ownerSeq())
	return f
}

// waitReplica returns once the replica holds model seq (or newer). It
// sleeps on the replica registry's version, which every install bumps, so
// it wakes at the install rather than at a polling tick.
func (f *lagFleet) waitReplica(seq int64) {
	for {
		ver := f.replica.Version()
		if e, ok := f.replica.Get("lag"); ok && e.Seq() >= seq {
			return
		}
		f.replica.WaitReplication(context.Background(), ver)
	}
}

// Benchmark_fleet_learn_replicated measures one op as: learn one tuple at a
// fresh point on the owner, then wait until the replica holds the owner's
// new model seq. An op that leaves the owner's seq unchanged fails the
// benchmark. The learn and the catch-up are timed as one op: the replica's
// long-poll wakes at the owner's seq bump, before the learn's response, so
// timing the catch-up alone would split its work at a point the host's
// scheduling moves. Every op is one learn plus one real catch-up, far below
// the 500ms Interval.
func Benchmark_fleet_learn_replicated(b *testing.B) {
	var f *lagFleet
	defer func() {
		if f != nil {
			f.close()
		}
	}()
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		j := i % lagBatch
		if j == 0 {
			// Booting is not part of the op.
			b.StopTimer()
			if f != nil {
				f.close()
			}
			f = bootLagFleet(b)
			b.StartTimer()
		}
		before := f.ownerSeq()
		if _, err := f.owner.Eval(ctx, "lag", client.EvalRequest{
			Input: lagPoint(j), Seed: int64(j + 1),
		}); err != nil {
			b.Fatalf("learn eval: %v", err)
		}
		after := f.ownerSeq()
		if after == before {
			b.Fatalf("op %d: learning at a fresh point left the owner's model seq at %d", i, after)
		}
		f.waitReplica(after)
	}
}

// fleetQueryRows is the request-relation size of one scattered-query op.
const fleetQueryRows = 16

// benchQueryFleet boots nShards in-process shards behind a fleet router,
// registers one UDF instance owned by each shard, and measures one op as a
// distributed bounded query (group-by + top-k over rows spanning every
// instance) through the router's scatter-gather path. The 1-shard variant
// isolates the decompose/merge overhead; the 3-shard variant adds the
// cross-shard fan-out.
func benchQueryFleet(b *testing.B, nShards int) {
	addrs := make([]string, nShards)
	for i := 0; i < nShards; i++ {
		s, err := server.New(server.Config{Workers: 1, MaxInFlight: 64})
		if err != nil {
			b.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		addrs[i] = ts.URL
		defer func() { ts.Close(); s.Close() }()
	}
	ring, err := NewRing(addrs, 0)
	if err != nil {
		b.Fatal(err)
	}
	names := make([]string, 0, nShards)
	for _, addr := range addrs {
		for i := 0; i < 64; i++ {
			if cand := fmt.Sprintf("u%d", i); ring.Owner(cand) == addr {
				names = append(names, cand)
				break
			}
		}
	}
	if len(names) != nShards {
		b.Fatalf("found %d owned instance names for %d shards", len(names), nShards)
	}
	rt, err := NewRouter(Config{Shards: addrs, Replicas: 1, Cooldown: 100 * time.Millisecond})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	tsR := httptest.NewServer(rt.Handler())
	defer tsR.Close()
	cl := client.New(tsR.URL)
	ctx := context.Background()

	rng := rand.New(rand.NewSource(5))
	warmup := make([]client.InputSpec, 8)
	for i := range warmup {
		warmup[i] = client.InputSpec{
			{Type: "normal", Mu: 0.3 + 0.4*rng.Float64(), Sigma: 0.15},
			{Type: "normal", Mu: 0.3 + 0.4*rng.Float64(), Sigma: 0.15},
		}
	}
	for _, name := range names {
		if _, err := cl.Register(ctx, client.RegisterRequest{
			UDF: "poly/smooth2d", Name: name, Eps: 0.2, Delta: 0.1,
			Warmup: warmup, WarmupSeed: 3,
		}); err != nil {
			b.Fatalf("register %s: %v", name, err)
		}
	}
	rows := make([]client.QueryRow, fleetQueryRows)
	for i := range rows {
		rows[i] = client.QueryRow{
			Input: client.InputSpec{
				{Type: "normal", Mu: 0.3 + 0.4*rng.Float64(), Sigma: 0.15},
				{Type: "normal", Mu: 0.3 + 0.4*rng.Float64(), Sigma: 0.15},
			},
			Group: string(rune('a' + i%3)),
			UDF:   names[i%len(names)],
		}
	}
	req := client.QueryRequest{
		Rows: rows, Seed: 11,
		GroupBy: &client.GroupBySpec{
			Keys: []string{"g"},
			Aggs: []client.AggSpec{{Kind: "count"}, {Kind: "avg", Attr: "y"}},
		},
		TopK: &client.TopKSpec{K: 2, By: "avg_y", Desc: true},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.RunQuery(ctx, req); err != nil {
			b.Fatalf("scattered query: %v", err)
		}
	}
	b.ReportMetric(float64(fleetQueryRows*b.N)/b.Elapsed().Seconds(), "tuples/s")
}

func Benchmark_fleet_query_scatter_1shard(b *testing.B) { benchQueryFleet(b, 1) }
func Benchmark_fleet_query_scatter_3shard(b *testing.B) { benchQueryFleet(b, 3) }

// TestFleetQueryBenchRuns smokes the scattered-query benchmarks: a broken
// fleet boot or a scatter failure must fail `go test` rather than
// surfacing for the first time in a full bench-json run.
func TestFleetQueryBenchRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("boots in-process shards; skipped in -short")
	}
	for shards, f := range map[int]func(*testing.B){
		1: Benchmark_fleet_query_scatter_1shard,
		3: Benchmark_fleet_query_scatter_3shard,
	} {
		if res := testing.Benchmark(f); res.N <= 0 {
			t.Fatalf("%d-shard scatter benchmark did not run", shards)
		}
	}
}

// TestFleetLearnReplicatedBenchRuns smokes the replicated-learning
// benchmark, which fails any op whose learn leaves the owner's model seq
// unchanged: fresh points or an eps that stop moving the seq must fail
// `go test`.
func TestFleetLearnReplicatedBenchRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("boots an in-process two-shard fleet; skipped in -short")
	}
	res := testing.Benchmark(Benchmark_fleet_learn_replicated)
	if res.N <= 0 {
		t.Fatal("replicated-learning benchmark failed or did not run")
	}
}
