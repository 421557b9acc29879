// Command olgapro runs the paper's motivating queries over a synthetic (or
// CSV-loaded) SDSS-like catalog, evaluating astrophysics UDFs on uncertain
// attributes with either the OLGAPRO GP engine or Monte-Carlo simulation.
//
// Query Q1 (paper §1):
//
//	SELECT G.objID, GalAge(G.redshift) FROM Galaxy G
//
// Query Q2-style (distance predicate with TEP filtering):
//
//	SELECT G1.objID, G2.objID, ComoveVol(G1.redshift, G2.redshift, AREA)
//	FROM Galaxy G1, Galaxy G2
//	WHERE Distance(G1.pos, G2.pos) ∈ [l, u]
//
// With -workers N ≠ 1 the UDF-application stages run on the parallel
// pipelined executor (internal/exec): a GP engine is warmed on a few
// tuples, frozen, and cloned per worker; a Monte-Carlo engine, being
// stateless, is simply replicated. Per-tuple RNG seeding keeps the output
// bit-identical across every worker count N ≥ 2 for a fixed -seed.
// -workers 1 runs the serial, online-learning UDF application with one
// shared generator instead, so its output differs from the parallel runs.
//
// Usage:
//
//	olgapro -query q1|q2 [-engine gp|mc] [-n galaxies] [-eps e]
//	        [-workers n] [-catalog file.csv]
package main

import (
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"runtime"
	"time"

	"olgapro/internal/astro"
	"olgapro/internal/core"
	"olgapro/internal/exec"
	"olgapro/internal/kernel"
	"olgapro/internal/mc"
	"olgapro/internal/query"
	"olgapro/internal/sdss"
)

func main() {
	queryName := flag.String("query", "q1", "query to run: q1 or q2")
	engine := flag.String("engine", "gp", "evaluation engine: gp or mc")
	n := flag.Int("n", 40, "catalog size when generating")
	eps := flag.Float64("eps", 0.1, "accuracy requirement ε")
	delta := flag.Float64("delta", 0.05, "confidence parameter δ")
	seed := flag.Int64("seed", 1, "random seed")
	workers := flag.Int("workers", 1, "UDF-application workers (1 = serial; ≤ 0 = GOMAXPROCS)")
	catalogPath := flag.String("catalog", "", "load catalog CSV instead of generating")
	limit := flag.Int("limit", 10, "print at most this many result tuples")
	sparseBudget := flag.Int("sparse-budget", 0, "GP inducing-point budget (0 = exact model; ≥ 2 = budgeted sparse)")
	sparseInflate := flag.Float64("sparse-inflate", 0, "sparse predictive-sd inflation (0 = model default 1.1)")
	flag.Parse()

	if err := run(*queryName, *engine, *n, *eps, *delta, *seed, *workers, *catalogPath, *limit, *sparseBudget, *sparseInflate); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(queryName, engine string, n int, eps, delta float64, seed int64, workers int, catalogPath string, limit, sparseBudget int, sparseInflate float64) error {
	var cat *sdss.Catalog
	if catalogPath != "" {
		f, err := os.Open(catalogPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if cat, err = sdss.ReadCSV(f); err != nil {
			return err
		}
	} else {
		cat = sdss.Generate(sdss.GenerateConfig{N: n, Seed: seed})
	}
	rel := galaxyRelation(cat)
	rng := rand.New(rand.NewSource(seed))
	cosmo := astro.Default()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// builtEngine pairs the opaque query engine with the GP evaluator
	// behind it (nil for MC), which poolFor needs for warm-and-freeze.
	type builtEngine struct {
		eng query.Engine
		ev  *core.Evaluator
	}
	mkEngine := func(f interface {
		Dim() int
		Eval([]float64) float64
	}, kern kernel.Kernel, pred *mc.Predicate) (builtEngine, error) {
		switch engine {
		case "mc":
			return builtEngine{eng: query.NewMCEngine(f, mc.Config{
				Eps: eps, Delta: delta, Metric: mc.MetricDiscrepancy, Predicate: pred,
			})}, nil
		case "gp":
			ev, err := core.NewEvaluator(f, core.Config{
				Eps: eps, Delta: delta, Kernel: kern, Predicate: pred,
				SparseBudget: sparseBudget, SparseInflate: sparseInflate,
			})
			if err != nil {
				return builtEngine{}, err
			}
			return builtEngine{eng: query.NewEvaluatorEngine(ev), ev: ev}, nil
		default:
			return builtEngine{}, fmt.Errorf("unknown engine %q (want gp or mc)", engine)
		}
	}

	// poolFor turns one engine into a worker pool: a GP engine is warmed on
	// the given tuples, then frozen and cloned per worker; a stateless MC
	// engine is replicated as-is.
	poolFor := func(be builtEngine, warm []*query.Tuple, inputs []string) (*exec.Pool, error) {
		if be.ev != nil {
			for _, t := range warm {
				input, err := query.InputVectorFor(t, inputs)
				if err != nil {
					return nil, err
				}
				if _, err := be.ev.Eval(input, rng); err != nil {
					return nil, fmt.Errorf("warm-up: %w", err)
				}
			}
			return exec.NewEvaluatorPool(be.ev, workers)
		}
		engines := make([]query.Engine, workers)
		for i := range engines {
			engines[i] = be.eng
		}
		return exec.NewPool(engines...)
	}

	// applyStage builds the UDF-application operator: the classic serial
	// ApplyUDF at -workers 1, the parallel executor otherwise.
	applyStage := func(in query.Iterator, inputs []string, out string, be builtEngine,
		pred *mc.Predicate, warm []*query.Tuple) (query.Iterator, func() int, error) {
		// With nothing to warm a GP pool on (empty relation), the serial
		// path handles the stream — it drains to zero results where a
		// frozen pool could not even be built.
		if workers == 1 || len(warm) == 0 {
			a := &query.ApplyUDF{In: in, Inputs: inputs, Out: out, Engine: be.eng, Rng: rng, Predicate: pred}
			return a, func() int { return a.Dropped }, nil
		}
		pool, err := poolFor(be, warm, inputs)
		if err != nil {
			return nil, nil, err
		}
		// Mix the stage name into the seed: chained stages must not hand
		// tuple #k the same RNG stream, or their sampling errors correlate.
		h := fnv.New64a()
		h.Write([]byte(out))
		pe := pool.Apply(in, inputs, out, exec.Options{Seed: seed ^ int64(h.Sum64()), Predicate: pred})
		return pe, func() int { return pe.Dropped }, nil
	}

	// Pooled engines are frozen before the parallel scan, so give the model
	// enough warm-up tuples to be useful — with a predicate, a barely
	// trained frozen model filters nothing (wide envelopes keep every TEP
	// upper bound above θ; conservative, never wrong, just slower).
	warmCount := func(total int) int { return min(total, 12) }

	start := time.Now()
	switch queryName {
	case "q1":
		eng, err := mkEngine(astro.GalAgeFunc(cosmo), kernel.NewSqExp(4, 0.3), nil)
		if err != nil {
			return err
		}
		inputs := []string{"redshift"}
		apply, _, err := applyStage(query.NewScan(rel), inputs, "galAge", eng, nil, rel[:warmCount(len(rel))])
		if err != nil {
			return err
		}
		results, err := query.Drain(apply)
		if err != nil {
			return err
		}
		fmt.Printf("Q1: SELECT objID, GalAge(redshift) FROM Galaxy  [engine=%s ε=%g workers=%d]\n", engine, eps, workers)
		printResults(results, []string{"objID", "galAge"}, limit)
	case "q2":
		// Self-join on distinct pairs; distance predicate with TEP filtering,
		// then comoving volume between the pair's redshifts.
		pairs, err := query.Drain(query.NewCrossJoin(rel[:min(len(rel), 12)], "g1.", rel[:min(len(rel), 12)], "g2.", true))
		if err != nil {
			return err
		}
		distUDF := astro.AngDistFunc4()
		distEng, err := mkEngine(distUDF, kernel.NewSqExp(20, 15), &mc.Predicate{A: 0, B: 25, Theta: 0.2})
		if err != nil {
			return err
		}
		distInputs := []string{"g1.ra", "g1.dec", "g2.ra", "g2.dec"}
		withDist, distDropped, err := applyStage(query.NewScan(pairs), distInputs, "distance",
			distEng, nil, pairs[:warmCount(len(pairs))])
		if err != nil {
			return err
		}
		volEng, err := mkEngine(astro.ComoveVolFunc(cosmo, 100), kernel.NewSqExp(5e7, 0.3), nil)
		if err != nil {
			return err
		}
		volInputs := []string{"g1.redshift", "g2.redshift"}
		withVol, _, err := applyStage(withDist, volInputs, "comoveVol",
			volEng, nil, pairs[:warmCount(len(pairs))])
		if err != nil {
			return err
		}
		results, err := query.Drain(withVol)
		if err != nil {
			return err
		}
		fmt.Printf("Q2: SELECT g1.objID, g2.objID, ComoveVol(...) WHERE Distance(pos) ∈ [0,25]  [engine=%s ε=%g workers=%d]\n", engine, eps, workers)
		fmt.Printf("pairs examined: %d, dropped by TEP filter: %d\n", len(pairs), distDropped())
		printResults(results, []string{"g1.objID", "g2.objID", "distance", "comoveVol"}, limit)
	default:
		return fmt.Errorf("unknown query %q (want q1 or q2)", queryName)
	}
	fmt.Printf("elapsed: %s\n", time.Since(start).Round(time.Millisecond))
	return nil
}

// galaxyRelation converts a catalog into the uncertain relation of queries
// Q1/Q2: one tuple per galaxy with Gaussian position and redshift
// attributes.
func galaxyRelation(cat *sdss.Catalog) []*query.Tuple {
	rel := make([]*query.Tuple, len(cat.Galaxies))
	for i, g := range cat.Galaxies {
		rel[i] = query.GalaxyTuple(g.ObjID, g.RA, g.Dec, g.RAErr, g.DecErr, g.Redshift, g.RedshiftErr)
	}
	return rel
}

func printResults(results []*query.Tuple, cols []string, limit int) {
	for i, t := range results {
		if i >= limit {
			fmt.Printf("... (%d more)\n", len(results)-limit)
			break
		}
		for j, c := range cols {
			if j > 0 {
				fmt.Print("  ")
			}
			v, err := t.Get(c)
			if err != nil {
				fmt.Printf("%s=?", c)
				continue
			}
			if v.Kind == query.KindResult && v.R != nil {
				fmt.Printf("%s=[p05 %.4g, median %.4g, p95 %.4g]", c,
					v.R.Quantile(0.05), v.R.Quantile(0.5), v.R.Quantile(0.95))
			} else {
				fmt.Printf("%s=%s", c, v)
			}
		}
		fmt.Println()
	}
	fmt.Printf("%d result tuples\n", len(results))
}
