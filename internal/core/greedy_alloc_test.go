package core

import (
	"math/rand"
	"testing"
)

// The greedy trial loop builds one envelope and one discrepancy bound per
// candidate (greedyBestRank1). With the envelope's three ECDF structs owned
// by the scratch (ecdf.SetSorted) the whole per-candidate step must be
// allocation-free once warm — formerly it paid three small ECDF-struct
// allocations per candidate, named as remaining headroom in ROADMAP.md.
func TestGreedyTrialEnvelopeAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const m = 400
	means := make([]float64, m)
	vars := make([]float64, m)
	for i := range means {
		means[i] = rng.NormFloat64()
		vars[i] = 0.01 + rng.Float64() // heteroscedastic: the general path
	}
	var sc evalScratch
	// Warm: grow every buffer once.
	env := sc.tuneEnv.envelopeOf(means, vars, 2.0, m)
	env.DiscrepancyBoundWith(&sc.bound, 0.05)
	allocs := testing.AllocsPerRun(100, func() {
		trial := sc.tuneEnv.envelopeOf(means, vars, 2.0, m)
		if b := trial.DiscrepancyBoundWith(&sc.bound, 0.05); b < 0 {
			t.Fatal("negative bound")
		}
	})
	if allocs != 0 {
		t.Fatalf("greedy trial envelope+bound allocates %.0f/op, want 0", allocs)
	}
}

// The homoscedastic fast path (uniform variance → shifted supports) must be
// allocation-free too.
func TestGreedyTrialEnvelopeAllocFreeUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	const m = 400
	means := make([]float64, m)
	vars := make([]float64, m)
	for i := range means {
		means[i] = rng.NormFloat64()
		vars[i] = 0.25
	}
	var sc evalScratch
	env := sc.tuneEnv.envelopeOf(means, vars, 2.0, m)
	env.DiscrepancyBoundWith(&sc.bound, 0.05)
	allocs := testing.AllocsPerRun(100, func() {
		trial := sc.tuneEnv.envelopeOf(means, vars, 2.0, m)
		trial.DiscrepancyBoundWith(&sc.bound, 0.05)
	})
	if allocs != 0 {
		t.Fatalf("uniform-variance envelope+bound allocates %.0f/op, want 0", allocs)
	}
}

// One full optimal-greedy pick (candidate pool + per-candidate rank-1 trials)
// must not allocate per candidate: the only tolerated allocations are the
// O(1)-count ones of the pick itself (the evaluation-subset permutation),
// far below the former 3-per-candidate envelope cost.
func TestPickGreedyAllocBudget(t *testing.T) {
	e := seededEvaluator(t, 60)
	e.cfg.Tuning = TuneOptimalGreedy
	e.cfg.GlobalInference = true
	rng := rand.New(rand.NewSource(11))
	samples := make([][]float64, 400)
	for i := range samples {
		samples[i] = []float64{3.5 + 3*rng.Float64(), 3.5 + 3*rng.Float64()}
	}
	if _, err := e.pickGreedyForBench(samples, rng, false); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := e.pickGreedyForBench(samples, rng, false); err != nil {
			t.Fatal(err)
		}
	})
	// The pick still pays O(1)-per-pick setup allocations (local-context
	// rebuild, evaluation-subset permutation) — ~78 on this workload — but
	// nothing per candidate. The budget sits between that and the former
	// cost (~270: 3 ECDF structs × ~64 candidates on top of setup), so the
	// per-candidate envelope allocations can never sneak back unnoticed.
	const budget = 120
	if allocs > budget {
		t.Fatalf("pickGreedyForBench allocates %.0f/op, budget %d", allocs, budget)
	}
}
