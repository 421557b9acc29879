// Package bench regenerates every table and figure of the paper's
// evaluation (§6). Each Fig* function reproduces one figure as a Table of
// the same series the paper plots; cmd/experiments runs them all, and
// bench_test.go at the module root exposes one testing.B benchmark per
// figure.
//
// Timing model: UDF invocations are charged to a virtual clock (package
// vclock) at their nominal cost T while the algorithms' own computation is
// measured in wall time, so the reported totals reproduce the paper's cost
// model (algorithm time + #UDF-calls × T) without needing hours of real
// sleeping for T = 1 s sweeps.
package bench

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
	"time"

	"olgapro/internal/core"
	"olgapro/internal/dist"
	"olgapro/internal/ecdf"
	"olgapro/internal/gp"
	"olgapro/internal/kernel"
	"olgapro/internal/mc"
	"olgapro/internal/udf"
	"olgapro/internal/vclock"
)

// Scale controls how much work each experiment does. The paper averages
// over 500 inputs; Default uses fewer so the full suite finishes in minutes,
// and Quick trims further for smoke tests and testing.B benches.
type Scale struct {
	Seed   int64
	Inputs int // uncertain inputs per configuration
	Truth  int // ground-truth samples per input when actual error is needed
}

// DefaultScale is used by cmd/experiments.
func DefaultScale() Scale { return Scale{Seed: 1, Inputs: 24, Truth: 10000} }

// QuickScale is used by benchmarks and smoke tests.
func QuickScale() Scale { return Scale{Seed: 1, Inputs: 8, Truth: 4000} }

// Table is one reproduced figure or table.
type Table struct {
	ID      string // e.g. "Fig 5(a)"
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Render writes an aligned text rendering.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s — %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		var sb strings.Builder
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(sb.String(), " "))
	}
	line(t.Columns)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// fdur renders a duration in milliseconds with sensible precision.
func fdur(d time.Duration) string {
	ms := float64(d) / float64(time.Millisecond)
	switch {
	case ms >= 1000:
		return fmt.Sprintf("%.0f", ms)
	case ms >= 10:
		return fmt.Sprintf("%.1f", ms)
	default:
		return fmt.Sprintf("%.3f", ms)
	}
}

func ffloat(v float64) string { return fmt.Sprintf("%.4f", v) }

// inputStream draws n input distributions with means inside the domain,
// matching §6.1-B (μ_I from the function support, σ_I = 0.5).
func inputStream(rng *rand.Rand, n, d int, sigma float64) []dist.Vector {
	out := make([]dist.Vector, n)
	for i := range out {
		mu := make([]float64, d)
		for j := range mu {
			// Keep means one σ inside the domain so most samples stay in.
			mu[j] = udf.DomainLo + 1 + rng.Float64()*(udf.DomainHi-udf.DomainLo-2)
		}
		v, err := dist.IsoGaussianVec(mu, sigma)
		if err != nil {
			panic(err)
		}
		out[i] = v
	}
	return out
}

// gpRun aggregates a GP engine run over an input stream.
type gpRun struct {
	PerInput   time.Duration // (measured + charged) / inputs
	TotalTime  time.Duration
	AvgBound   float64
	AvgErr     float64 // vs ground truth; NaN-free: 0 when truth not requested
	Violations int     // inputs whose actual error exceeded the bound
	Checked    int
	UDFCalls   int
	Points     int
	Retrains   int
	Filtered   int
	AvgLocal   float64
	Outputs    []*core.Output
}

// runGP streams inputs through an OLGAPRO evaluator, charging UDF calls at
// cost T, optionally comparing each output to a fresh ground truth.
func runGP(f udf.Func, cfg core.Config, inputs []dist.Vector, T time.Duration,
	truthSamples int, rng *rand.Rand) (gpRun, error) {
	var clk vclock.Clock
	counted := udf.NewCounter(f, T, &clk)
	ev, err := core.NewEvaluator(counted, cfg)
	if err != nil {
		return gpRun{}, err
	}
	res := gpRun{}
	var boundSum, errSum, localSum float64
	for _, in := range inputs {
		var out *core.Output
		var evalErr error
		clk.Run(func() { out, evalErr = ev.Eval(in, rng) })
		if evalErr != nil {
			return gpRun{}, evalErr
		}
		res.Outputs = append(res.Outputs, out)
		localSum += float64(out.LocalPoints)
		if out.Filtered {
			res.Filtered++
			continue
		}
		boundSum += out.Bound
		if truthSamples > 0 {
			truth := mc.GroundTruth(f, in, truthSamples, rng)
			actual := ecdf.DiscrepancyLambda(out.Dist, truth, out.Lambda)
			errSum += actual
			res.Checked++
			if actual > out.Bound {
				res.Violations++
			}
		}
	}
	n := len(inputs)
	kept := n - res.Filtered
	res.TotalTime = clk.Total()
	res.PerInput = res.TotalTime / time.Duration(n)
	if kept > 0 {
		res.AvgBound = boundSum / float64(kept)
	}
	if res.Checked > 0 {
		res.AvgErr = errSum / float64(res.Checked)
	}
	res.UDFCalls = counted.Calls()
	st := ev.Stats()
	res.Points = st.TrainingPoints
	res.Retrains = st.Retrainings
	res.AvgLocal = localSum / float64(n)
	return res, nil
}

// mcRun aggregates an MC engine run.
type mcRun struct {
	PerInput  time.Duration
	TotalTime time.Duration
	UDFCalls  int
	Filtered  int
}

// runMC streams inputs through the Monte-Carlo engine with UDF calls
// charged at cost T.
func runMC(f udf.Func, cfg mc.Config, inputs []dist.Vector, T time.Duration,
	rng *rand.Rand) (mcRun, error) {
	var clk vclock.Clock
	counted := udf.NewCounter(f, T, &clk)
	res := mcRun{}
	for _, in := range inputs {
		var r mc.Result
		var evalErr error
		clk.Run(func() { r, evalErr = mc.Evaluate(counted, in, cfg, rng) })
		if evalErr != nil {
			return mcRun{}, evalErr
		}
		if r.Filtered {
			res.Filtered++
		}
	}
	res.TotalTime = clk.Total()
	res.PerInput = res.TotalTime / time.Duration(len(inputs))
	res.UDFCalls = counted.Calls()
	return res, nil
}

// defaultKernel returns the GP prior used across the synthetic experiments:
// amplitude matched to the mixture functions (≈[0,1.5]) and a lengthscale
// that online retraining can adapt from.
func defaultKernel() kernel.Kernel { return kernel.NewSqExp(0.5, 1.5) }

// pretrain seeds an evaluator-less GP config with n uniform training points
// by constructing the evaluator and calling AddTrainingAt.
func pretrain(ev *core.Evaluator, n, d int, rng *rand.Rand) error {
	for i := 0; i < n; i++ {
		x := make([]float64, d)
		for j := range x {
			x[j] = udf.DomainLo + rng.Float64()*(udf.DomainHi-udf.DomainLo)
		}
		if err := ev.AddTrainingAt(x); err != nil {
			// Duplicates are harmless during seeding.
			continue
		}
	}
	return nil
}

// msOne is the paper's default UDF evaluation time T = 1 ms (§6.1).
const msOne = time.Millisecond

// runGPSeeded is runGP with nTrain uniform training points added (and the
// hyperparameters trained once) before the input stream runs. Seeding cost
// is charged to the clock like any other UDF call.
func runGPSeeded(f udf.Func, cfg core.Config, nTrain int, inputs []dist.Vector,
	T time.Duration, truthSamples int, rng *rand.Rand) (gpRun, error) {
	var clk vclock.Clock
	counted := udf.NewCounter(f, T, &clk)
	ev, err := core.NewEvaluator(counted, cfg)
	if err != nil {
		return gpRun{}, err
	}
	d := f.Dim()
	if err := pretrain(ev, nTrain, d, rng); err != nil {
		return gpRun{}, err
	}
	if _, err := ev.GP().Train(gpTrainCfg()); err != nil {
		return gpRun{}, err
	}
	res := gpRun{}
	var boundSum, errSum, localSum float64
	for _, in := range inputs {
		var out *core.Output
		var evalErr error
		clk.Run(func() { out, evalErr = ev.Eval(in, rng) })
		if evalErr != nil {
			return gpRun{}, evalErr
		}
		res.Outputs = append(res.Outputs, out)
		localSum += float64(out.LocalPoints)
		if out.Filtered {
			res.Filtered++
			continue
		}
		boundSum += out.Bound
		if truthSamples > 0 {
			truth := mc.GroundTruth(f, in, truthSamples, rng)
			actual := ecdf.DiscrepancyLambda(out.Dist, truth, out.Lambda)
			errSum += actual
			res.Checked++
			if actual > out.Bound {
				res.Violations++
			}
		}
	}
	n := len(inputs)
	kept := n - res.Filtered
	res.TotalTime = clk.Total()
	res.PerInput = res.TotalTime / time.Duration(n)
	if kept > 0 {
		res.AvgBound = boundSum / float64(kept)
	}
	if res.Checked > 0 {
		res.AvgErr = errSum / float64(res.Checked)
	}
	res.UDFCalls = counted.Calls()
	st := ev.Stats()
	res.Points = st.TrainingPoints
	res.Retrains = st.Retrainings
	res.AvgLocal = localSum / float64(n)
	return res, nil
}

func gpTrainCfg() gp.TrainConfig { return gp.TrainConfig{MaxIter: 40} }

// kernelForRetraining is a deliberately mis-specified prior (too-long
// lengthscale for Funct4) so the retraining experiment has something to fix.
func kernelForRetraining() kernel.Kernel { return kernel.NewSqExp(0.3, 4) }
