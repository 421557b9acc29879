package main

import "testing"

// TestFleetQueryBenchRuns smokes the scattered-query harness entries: a
// broken fleet boot or a scatter failure must fail `go test` rather than
// surfacing for the first time in a full bench-json run.
func TestFleetQueryBenchRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("boots in-process shards; skipped in -short")
	}
	for _, shards := range []int{1, 3} {
		res := testing.Benchmark(benchQueryFleet(shards))
		if res.N <= 0 {
			t.Fatalf("%d-shard scatter benchmark did not run", shards)
		}
	}
}

// TestFrozenQ1BenchRuns smokes the fresh-tuple, bound and local-predict
// benchmarks, whose setup learns a Q1 model and checks the support size.
func TestFrozenQ1BenchRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("learns a Q1 model and times three benchmarks; skipped in -short")
	}
	for name, f := range map[string]func(*testing.B){
		"eval_frozen_fresh":       benchEvalFrozenFresh,
		"discrepancy_bound_m1784": benchDiscrepancyBound,
		"predict_local_m1784":     benchPredictLocal,
	} {
		if res := testing.Benchmark(f); res.N <= 0 {
			t.Fatalf("%s did not run", name)
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
	res := testing.Benchmark(benchFleetLearnReplicated)
	if res.N <= 0 {
		t.Fatal("replicated-learning benchmark failed or did not run")
	}
}

// TestCloneRebuildBenchRuns smokes the frozen-build benchmark at its small
// size.
func TestCloneRebuildBenchRuns(t *testing.T) {
	if res := testing.Benchmark(benchCloneRebuild(200)); res.N <= 0 {
		t.Fatal("clone-rebuild benchmark failed or did not run")
	}
}
