package bench

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"olgapro/internal/core"
	"olgapro/internal/dist"
	"olgapro/internal/gp"
	"olgapro/internal/kernel"
	"olgapro/internal/mc"
	"olgapro/internal/rtree"
	"olgapro/internal/udf"
)

// Ablations of OLGAPRO's design choices. These go beyond the paper's
// figures: each isolates one mechanism of OLGAPRO and measures what it buys.

// AblationIncremental quantifies the O(n²) bordered Cholesky update of
// online tuning (§5.2) against refactorizing from scratch at O(n³) — the
// cost of adding one training point at various model sizes.
func AblationIncremental(sc Scale) (*Table, error) {
	t := &Table{
		ID:      "Ablation A1",
		Title:   "Incremental add (O(n²) bordered update) vs. full refit (O(n³))",
		Columns: []string{"n", "incremental add", "full refit", "speedup"},
		Notes: []string{
			"design: §5.2 requires incremental updates for online tuning to be affordable",
		},
	}
	rng := rand.New(rand.NewSource(sc.Seed))
	k := kernel.NewSqExp(1, 1.5)
	for _, n := range []int{50, 100, 200, 400} {
		xs := make([][]float64, n+1)
		ys := make([]float64, n+1)
		for i := range xs {
			xs[i] = []float64{rng.Float64() * 10, rng.Float64() * 10}
			ys[i] = rng.NormFloat64()
		}
		base := gp.New(k.Clone(), 1e-8)
		if err := base.AddBatch(xs[:n], ys[:n]); err != nil {
			return nil, err
		}
		reps := maxInt(2000/n, 3)
		// Incremental: time Add of the (n+1)-th point on a fresh copy.
		var incTotal time.Duration
		for r := 0; r < reps; r++ {
			g := gp.New(k.Clone(), 1e-8)
			if err := g.AddBatch(xs[:n], ys[:n]); err != nil {
				return nil, err
			}
			start := time.Now()
			if err := g.Add(xs[n], ys[n]); err != nil {
				return nil, err
			}
			incTotal += time.Since(start)
		}
		// Refit: factorize all n+1 points from scratch.
		var refitTotal time.Duration
		for r := 0; r < reps; r++ {
			g := gp.New(k.Clone(), 1e-8)
			if err := g.AddBatch(xs[:n], ys[:n]); err != nil {
				return nil, err
			}
			start := time.Now()
			g2 := gp.New(k.Clone(), 1e-8)
			if err := g2.AddBatch(xs[:n+1], ys[:n+1]); err != nil {
				return nil, err
			}
			refitTotal += time.Since(start)
		}
		inc := incTotal / time.Duration(reps)
		refit := refitTotal / time.Duration(reps)
		t.AddRow(fmt.Sprintf("%d", n), inc.String(), refit.String(),
			fmt.Sprintf("%.1fx", float64(refit)/float64(inc)))
	}
	return t, nil
}

// AblationSubBoxes measures the γ-bound tightening from splitting the
// sample bounding box into sub-boxes (the refinement §5.1 mentions): the
// single-box bound over the same selected subset is looser, which forces
// local inference to select more points.
func AblationSubBoxes(sc Scale) (*Table, error) {
	t := &Table{
		ID:      "Ablation A2",
		Title:   "Local-inference γ bound: single box vs. sub-box refinement",
		Columns: []string{"input σ", "γ single-box", "γ sub-boxes", "tightening"},
		Notes: []string{
			"design: §5.1 'divide the sample bounding box into smaller boxes ... tighter'",
		},
	}
	f := udf.Standard(udf.F4, sc.Seed)
	rng := rand.New(rand.NewSource(sc.Seed))
	ev, err := core.NewEvaluator(f, core.Config{Kernel: defaultKernel()})
	if err != nil {
		return nil, err
	}
	if err := pretrain(ev, 150, 2, rng); err != nil {
		return nil, err
	}
	if _, err := ev.GP().Train(gpTrainCfg()); err != nil {
		return nil, err
	}
	for _, sigma := range []float64{0.25, 0.5, 1.0} {
		in := inputStream(rng, 1, 2, sigma)[0]
		samples := make([][]float64, 400)
		for i := range samples {
			samples[i] = in.SampleVec(rng, nil)
		}
		// A mid-size subset: points within a fixed radius of the box.
		box := rtree.BoundingBox(samples)
		ids := ev.TreeIDsNear(box, 2.0)
		selected := make(map[int]bool, len(ids))
		for _, id := range ids {
			selected[id] = true
		}
		single := ev.GammaBoundForBoxes(selected, []rtree.Rect{box})
		multi := ev.GammaBoundForBoxes(selected, core.SubBoxes(samples))
		ratio := 1.0
		if multi > 0 {
			ratio = single / multi
		}
		t.AddRow(fmt.Sprintf("%.2f", sigma), fmt.Sprintf("%.5f", single),
			fmt.Sprintf("%.5f", multi), fmt.Sprintf("%.2fx", ratio))
	}
	return t, nil
}

// AblationFilterVerify compares guarded filtering (one spot-check UDF call
// before dropping a tuple — this implementation's extension) against the
// paper's unguarded §5.5 filter, on a stream whose interesting region the
// model has not explored: the unguarded filter mis-drops alarm tuples.
func AblationFilterVerify(sc Scale) (*Table, error) {
	t := &Table{
		ID:      "Ablation A3",
		Title:   "Online filtering: guarded (spot-check) vs. unguarded (§5.5 as published)",
		Columns: []string{"variant", "dropped", "false negatives", "UDF calls", "ms/input"},
		Notes: []string{
			"design: one UDF call per drop eliminates false negatives from a wrong emulator",
		},
	}
	// A detection-style function: narrow bump on a flat background.
	f := udf.FuncOf{D: 2, F: func(x []float64) float64 {
		d2 := (x[0]-7)*(x[0]-7) + (x[1]-6.5)*(x[1]-6.5)
		return 2.2 * math.Exp(-d2/1.5)
	}}
	pred := &mc.Predicate{A: 1.2, B: 100, Theta: 0.1}
	n := maxInt(sc.Inputs*3, 30)
	// Adversarial stream: the model first converges on background-only
	// inputs (the bump at (7, 6.5) stays unexplored), then mixed inputs
	// arrive — the situation in which an unguarded filter mis-drops.
	mkInputs := func() []dist.Vector {
		rng := rand.New(rand.NewSource(sc.Seed))
		warm := make([]dist.Vector, 0, n)
		for len(warm) < n/3 {
			mu := []float64{1 + 3.5*rng.Float64(), 1 + 3.5*rng.Float64()}
			v, err := dist.IsoGaussianVec(mu, 0.4)
			if err != nil {
				panic(err)
			}
			warm = append(warm, v)
		}
		return append(warm, inputStream(rng, n-len(warm), 2, 0.4)...)
	}
	// Ground truth: which tuples genuinely reach the alarm range?
	shouldKeep := make([]bool, n)
	{
		rng := rand.New(rand.NewSource(sc.Seed + 99))
		for i, in := range mkInputs() {
			truth := mc.GroundTruth(f, in, 3000, rng)
			tep := truth.CDF(pred.B) - truth.CDF(pred.A)
			shouldKeep[i] = tep >= pred.Theta
		}
	}
	for _, variant := range []struct {
		name  string
		trust bool
	}{
		{"guarded (default)", false},
		{"unguarded (paper)", true},
	} {
		rng := rand.New(rand.NewSource(sc.Seed))
		inputs := mkInputs()
		cfg := core.Config{
			Kernel: kernel.NewSqExp(1, 1.2), Predicate: pred,
			FilterTrustModel: variant.trust,
		}
		run, err := runGP(f, cfg, inputs, msOne, 0, rng)
		if err != nil {
			return nil, err
		}
		var dropped, falseNeg int
		for i, o := range run.Outputs {
			if o.Filtered {
				dropped++
				if shouldKeep[i] {
					falseNeg++
				}
			}
		}
		t.AddRow(variant.name, fmt.Sprintf("%d/%d", dropped, n),
			fmt.Sprintf("%d", falseNeg), fmt.Sprintf("%d", run.UDFCalls),
			fdur(run.PerInput))
	}
	return t, nil
}
