package core

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"testing"

	"olgapro/internal/dist"
	"olgapro/internal/kernel"
	"olgapro/internal/udf"
)

// referenceClone is the frozen clone as it was built before views: a fresh
// evaluator over a copied kernel, with the exact model replayed through one
// Add per point (each refreshing α) and the R-tree, or the sparse model
// cloned canonically.
func referenceClone(t *testing.T, e *Evaluator) *Evaluator {
	t.Helper()
	cfg := e.cfg
	name, ardDim, err := kernelName(cfg.Kernel)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Kernel, err = kernelFromName(name, ardDim, e.cfg.Kernel.Params(nil)); err != nil {
		t.Fatal(err)
	}
	cfg.MaxAddPerInput, cfg.Retrain, cfg.FilterTrustModel, cfg.Parallelism = -1, RetrainNever, true, 1
	c, err := NewEvaluator(e.f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e.sg != nil {
		sg, err := e.sg.Clone(cfg.Kernel)
		if err != nil {
			t.Fatal(err)
		}
		c.sg, c.model = sg, sg
	} else {
		for i := 0; i < e.g.Len(); i++ {
			if err := c.g.Add(e.g.X(i), e.g.Y(i)); err != nil {
				t.Fatal(err)
			}
			if err := c.tree.Insert(c.g.X(i), i); err != nil {
				t.Fatal(err)
			}
		}
	}
	c.yMin, c.yMax, c.haveY = e.yMin, e.yMax, e.haveY
	return c
}

// outputsDigest evaluates every input with its own seeded generator and
// digests each output's supports and bound.
func outputsDigest(t *testing.T, ev *Evaluator, inputs []dist.Vector) uint64 {
	t.Helper()
	h := fnv.New64a()
	for i, in := range inputs {
		out, err := ev.Eval(in, rand.New(rand.NewSource(int64(500+i))))
		if err != nil {
			t.Fatal(err)
		}
		digestFloats(h, out.Dist.Values()...)
		digestFloats(h, out.Envelope.Lower.Values()...)
		digestFloats(h, out.Envelope.Upper.Values()...)
		digestFloats(h, out.Bound, out.ZAlpha, float64(out.LocalPoints))
	}
	return h.Sum64()
}

// viewModels are the learners the view tests walk: exact isotropic, exact
// ARD (no R-tree subset: global inference) and budgeted sparse with swap
// maintenance, all retraining as they learn.
func viewModels() []struct {
	name string
	cfg  Config
} {
	return []struct {
		name string
		cfg  Config
	}{
		{"sqexp", Config{Eps: 0.15, Delta: 0.1, Kernel: kernel.NewSqExp(1, 0.5), SampleOverride: 120}},
		{"sqexp-ard", Config{Eps: 0.15, Delta: 0.1, Kernel: kernel.NewSqExpARD(1, []float64{0.5, 0.8}), SampleOverride: 120}},
		{"sparse", Config{Eps: 0.15, Delta: 0.1, Kernel: kernel.NewSqExp(1, 0.5), SampleOverride: 120,
			SparseBudget: 6, SparseSwapEvery: 2}},
	}
}

// TestViewBuildMatchesCloneFrozen takes a view at each of ten learning
// steps, keeps learning, and only then builds each view: every built model
// must answer bit-identically to the pre-view reference clone taken at the
// same step, one rebinding evaluator must track every step, and each view's
// snapshot must encode to the bytes the learner saved at its step.
func TestViewBuildMatchesCloneFrozen(t *testing.T) {
	f := udf.FuncOf{D: 2, F: func(x []float64) float64 { return x[0]*x[0] + 0.5*x[1] + 0.3*x[0]*x[1] }}
	for _, tc := range viewModels() {
		t.Run(tc.name, func(t *testing.T) {
			learner, err := NewEvaluator(f, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(7))
			vec := func(mx, my float64) dist.Vector {
				v, err := dist.IsoGaussianVec([]float64{mx, my}, 0.12)
				if err != nil {
					t.Fatal(err)
				}
				return v
			}
			probes := []dist.Vector{vec(0.3, 0.4), vec(0.6, 0.5), vec(0.9, 0.2)}
			const steps = 10
			views := make([]*View, 0, steps)
			refs := make([]uint64, 0, steps)
			saved := make([][]byte, 0, steps)
			for step := 0; len(views) < steps; step++ {
				for j := 0; j < 2; j++ {
					pos := float64(2*step+j) / (2 * steps)
					if _, err := learner.Eval(vec(0.2+0.7*pos, 0.5+0.3*rng.Float64()), rng); err != nil {
						t.Fatal(err)
					}
				}
				if learner.Points() < 2 {
					continue
				}
				v, err := learner.View()
				if err != nil {
					t.Fatal(err)
				}
				views = append(views, v)
				refs = append(refs, outputsDigest(t, referenceClone(t, learner), probes))
				var buf bytes.Buffer
				if err := learner.Save(&buf); err != nil {
					t.Fatal(err)
				}
				saved = append(saved, buf.Bytes())
			}
			if learner.Stats().Retrainings == 0 {
				t.Fatal("the learning run never retrained; the views would not be tested against a moving kernel")
			}
			var follower *Evaluator
			for k, v := range views {
				m, err := v.Build()
				if err != nil {
					t.Fatal(err)
				}
				if got := outputsDigest(t, m.Evaluator(), probes); got != refs[k] {
					t.Fatalf("step %d: built view digest %#x, reference clone %#x", k, got, refs[k])
				}
				if follower == nil {
					follower = m.Evaluator()
				} else {
					follower.Rebind(m)
				}
				if got := outputsDigest(t, follower, probes); got != refs[k] {
					t.Fatalf("step %d: rebound evaluator digest %#x, reference clone %#x", k, got, refs[k])
				}
				s, err := v.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := WriteSnapshot(&buf, s); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(buf.Bytes(), saved[k]) {
					t.Fatalf("step %d: view snapshot (%d B) differs from the learner's save at that step (%d B)",
						k, buf.Len(), len(saved[k]))
				}
			}
		})
	}
}

// TestFrozenSharedAcrossGoroutines runs several evaluators of one frozen
// model concurrently (the race detector checks they only read it) and
// requires each to answer exactly as a lone evaluator does.
func TestFrozenSharedAcrossGoroutines(t *testing.T) {
	ev := warmedEvaluator(t)
	v, err := ev.View()
	if err != nil {
		t.Fatal(err)
	}
	m, err := v.Build()
	if err != nil {
		t.Fatal(err)
	}
	var inputs []dist.Vector
	for i := 0; i < 6; i++ {
		in, err := dist.IsoGaussianVec([]float64{0.3 + 0.08*float64(i), 0.5}, 0.15)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, in)
	}
	want := outputsDigest(t, m.Evaluator(), inputs)
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e := m.Evaluator()
			h := fnv.New64a()
			for i, in := range inputs {
				out, err := e.Eval(in, rand.New(rand.NewSource(int64(500+i))))
				if err != nil {
					errs <- err
					return
				}
				digestFloats(h, out.Dist.Values()...)
				digestFloats(h, out.Envelope.Lower.Values()...)
				digestFloats(h, out.Envelope.Upper.Values()...)
				digestFloats(h, out.Bound, out.ZAlpha, float64(out.LocalPoints))
			}
			if h.Sum64() != want {
				errs <- fmt.Errorf("concurrent evaluator digest %#x, lone evaluator %#x", h.Sum64(), want)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestRebindRefusesLearner guards the shared model: a learning evaluator
// must not be repointed at one.
func TestRebindRefusesLearner(t *testing.T) {
	ev := warmedEvaluator(t)
	m, err := ev.CloneFrozen()
	if err != nil {
		t.Fatal(err)
	}
	v, _ := ev.View()
	fm, err := v.Build()
	if err != nil {
		t.Fatal(err)
	}
	m.Rebind(fm) // a frozen evaluator may follow a model
	defer func() {
		if recover() == nil {
			t.Fatal("Rebind on a learning evaluator did not panic")
		}
	}()
	ev.Rebind(fm)
}
