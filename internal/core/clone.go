package core

import (
	"errors"
	"fmt"

	"olgapro/internal/gp"
	"olgapro/internal/kernel"
	"olgapro/internal/rtree"
)

// CloneFrozen returns an independent evaluator that shares the receiver's
// UDF, learned hyperparameters, and training set, with every form of online
// learning disabled: tuning (MaxAddPerInput), hyperparameter retraining, and
// the filter-verification UDF probes are all off, and intra-tuple inference
// parallelism is forced sequential. A frozen clone therefore never mutates
// its model, which makes its Eval a pure function of (input, rng) — the
// property the parallel executor's determinism guarantee (internal/exec)
// rests on: two frozen clones of the same evaluator produce bit-identical
// outputs for the same input and seed, regardless of which tuples each one
// has processed in between.
//
// The receiver must have at least two training points (one warm-up Eval is
// enough), or the clone's bootstrap step would add points on first use and
// break the frozen invariant. A clone is View followed by Build: one O(n³/3)
// factor replay on the exact path, a canonical rebuild on the sparse one.
// Several evaluators that should share one frozen model take it from one
// Build instead (see Frozen).
func (e *Evaluator) CloneFrozen() (*Evaluator, error) {
	v, err := e.View()
	if err != nil {
		return nil, err
	}
	m, err := v.Build()
	if err != nil {
		return nil, err
	}
	return m.Evaluator(), nil
}

// View is an immutable description of an evaluator's model at one moment:
// everything a frozen model (Build) or a snapshot (Snapshot) is made from.
// Taking one is cheap — it copies the kernel hyperparameters and, on the
// sparse path, the inducing indices, and shares the training pairs, which a
// model only ever appends to — so a learner's owner can take one per model
// change and build from it on other goroutines while the learner goes on
// learning. A View is safe for concurrent use.
type View struct {
	st modelState // frozen settings and the view's own kernel; no model yet
	// kernName and ardDim name the kernel for snapshots; nameErr is set for
	// a kernel outside the registry, which a view shares read-only instead
	// of copying (safe as long as the learner is not retrained meanwhile).
	kernName string
	ardDim   int
	nameErr  error
	params   []float64 // the learner's log-space hyperparameters
	noise    float64
	xs       [][]float64
	ys       []float64
	sparse   *gp.SparseConfig // nil on the exact path
	inducing []int
}

// View captures the evaluator's model as it is now. The receiver may keep
// learning afterwards: the view does not change.
func (e *Evaluator) View() (*View, error) {
	v := &View{st: e.modelState, noise: e.model.Noise()}
	v.st.g, v.st.sg, v.st.model, v.st.tree = nil, nil, nil, nil
	v.st.cfg.MaxAddPerInput = -1
	v.st.cfg.Retrain = RetrainNever
	v.st.cfg.FilterTrustModel = true
	v.st.cfg.Parallelism = 1
	v.params = e.cfg.Kernel.Params(nil)
	v.kernName, v.ardDim, v.nameErr = kernelName(e.cfg.Kernel)
	if v.nameErr == nil {
		k, err := kernelFromName(v.kernName, v.ardDim, v.params)
		if err != nil {
			return nil, fmt.Errorf("core: clone kernel: %w", err)
		}
		v.st.cfg.Kernel = k
	}
	var xs [][]float64
	var ys []float64
	if e.sg != nil {
		xs, ys = e.sg.Inputs(), e.sg.Outputs()
		sc := e.sg.Config()
		v.sparse = &sc
		v.inducing = append([]int(nil), e.sg.Inducing()...)
	} else {
		xs, ys = e.g.Inputs(), e.g.Outputs()
	}
	n := len(xs)
	v.xs, v.ys = xs[:n:n], ys[:n:n]
	return v, nil
}

// Snapshot returns the snapshot the viewed evaluator's Snapshot would have
// returned when the view was taken. The snapshot shares the view's training
// rows; it must not be modified.
func (v *View) Snapshot() (*Snapshot, error) {
	if v.nameErr != nil {
		return nil, v.nameErr
	}
	s := &Snapshot{
		Version:      SnapshotVersion,
		KernelName:   v.kernName,
		KernelParams: v.params,
		ARDDim:       v.ardDim,
		Noise:        v.noise,
		X:            v.xs,
		Y:            v.ys,
	}
	if v.sparse != nil {
		s.SparseBudget = v.sparse.Budget
		s.SparseTau = v.sparse.Tau
		s.SparseInflate = v.sparse.Inflate
		s.SparseSwapEvery = v.sparse.SwapEvery
		s.SparseInducing = v.inducing
	}
	return s, nil
}

// Build makes the frozen model of the view: the exact factor rebuilt point
// by point with α solved once (gp.Replay), which is the learner's factor at
// the view's step bit for bit, plus the R-tree, or the sparse model
// canonically rebuilt from its training set and inducing indices, so every
// build of the same view — and of a view of the same model restored from a
// snapshot — predicts bit-identically. The view needs at least two
// training points.
func (v *View) Build() (*Frozen, error) {
	if len(v.xs) < 2 {
		return nil, errors.New("core: CloneFrozen needs a model with ≥ 2 training points; run a warm-up Eval first")
	}
	st := v.st
	if v.sparse != nil {
		// An empty R-tree: the sparse path never consults it.
		sg, err := gp.NewSparseFromState(st.cfg.Kernel, v.noise, *v.sparse, v.xs, v.ys, v.inducing)
		if err != nil {
			return nil, fmt.Errorf("core: clone sparse model: %w", err)
		}
		st.sg, st.model, st.tree = sg, sg, new(rtree.Tree)
	} else {
		g, tree, err := replayExact(st.cfg.Kernel, v.noise, v.xs, v.ys)
		if err != nil {
			return nil, fmt.Errorf("core: clone: %w", err)
		}
		st.g, st.model, st.tree = g, g, tree
	}
	return &Frozen{st: st}, nil
}

// replayExact builds the exact emulator over the training pairs and the
// R-tree indexing them — the one replay rule behind frozen builds and exact
// snapshot restores.
func replayExact(k kernel.Kernel, noise float64, xs [][]float64, ys []float64) (*gp.GP, *rtree.Tree, error) {
	g, err := gp.Replay(k, noise, xs, ys)
	if err != nil {
		return nil, nil, err
	}
	tree := new(rtree.Tree)
	for i := 0; i < g.Len(); i++ {
		if err := tree.Insert(g.X(i), i); err != nil {
			return nil, nil, fmt.Errorf("index insert %d: %w", i, err)
		}
	}
	return g, tree, nil
}

// Frozen is one immutable frozen model: the emulator, its R-tree, its
// kernel and its settings with online learning disabled, as CloneFrozen
// configures them. Any number of evaluators made from it (Evaluator, Rebind)
// share it read-only and may run concurrently, each with its own scratch —
// so serving N workers from one model costs one build, not N.
type Frozen struct {
	st modelState
}

// Evaluator returns a new frozen evaluator over the shared model.
func (m *Frozen) Evaluator() *Evaluator {
	return &Evaluator{modelState: m.st}
}

// Rebind points a frozen evaluator at another frozen model, keeping its
// scratch and its counters, so a worker that follows a changing model does
// not regrow its workspace on every change. It panics on an evaluator that
// learns: repointing one would let its next Add write into a shared model.
func (e *Evaluator) Rebind(m *Frozen) {
	if !e.Frozen() {
		panic("core: Rebind on a learning evaluator")
	}
	e.modelState = m.st
}

// Frozen reports whether the evaluator was built with online learning
// disabled (as CloneFrozen configures it).
func (e *Evaluator) Frozen() bool {
	return e.cfg.MaxAddPerInput < 0 && e.cfg.Retrain == RetrainNever && e.cfg.FilterTrustModel
}
