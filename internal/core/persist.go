package core

import (
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"

	"olgapro/internal/gp"
	"olgapro/internal/kernel"
)

// Snapshot file format: a fixed magic string, a little-endian uint32 format
// version, then the gob-encoded Snapshot. The reader accepts exactly that
// encoding at exactly SnapshotVersion, so a file written by any other build
// fails loudly instead of being silently misread.
const (
	snapshotMagic = "olgapro-snap\n"
	// SnapshotVersion is the snapshot format version this build writes and
	// the only one it reads.
	SnapshotVersion = 4
)

// Snapshot is the serializable state of a trained evaluator: the training
// set and the learned hyperparameters. Together with the (non-serializable)
// black-box UDF and a Config, it reconstructs an Evaluator that picks up
// where the saved one left off — letting a long-running service persist an
// emulator it paid UDF calls to learn.
type Snapshot struct {
	// Version is the format version the snapshot was written with.
	Version int
	// KernelName identifies the kernel family ("sqexp", "matern32",
	// "matern52", "sqexp-ard").
	KernelName string
	// KernelParams are the log-space hyperparameters.
	KernelParams []float64
	// ARDDim is the input dimensionality for "sqexp-ard" (0 otherwise).
	ARDDim int
	// Noise is the GP jitter variance the model was trained with; restoring
	// under a different noise would change every prediction bit.
	Noise float64
	// X and Y are the training pairs.
	X [][]float64
	Y []float64
	// ModelSeq is the per-UDF monotonic model sequence number the snapshot
	// was taken at. It increments on every model mutation in the owning
	// writer process; replicas compare sequence numbers to decide whether
	// a fetched snapshot is newer than their installed state, and a
	// restored process resumes its counter from this value so the ordering
	// survives restarts.
	ModelSeq int64
	// SparseBudget, when positive, marks the snapshot as a budgeted sparse
	// model; the remaining Sparse* fields mirror gp.SparseConfig plus the
	// inducing-point indices into X. Zero means an exact model.
	SparseBudget int
	// SparseTau is the admission threshold on relative novelty.
	SparseTau float64
	// SparseInflate is the predictive-standard-deviation inflation factor.
	SparseInflate float64
	// SparseSwapEvery is the inducing-set maintenance cadence.
	SparseSwapEvery int
	// SparseInducing are the indices into X of the inducing points.
	SparseInducing []int
}

// kernelName maps a kernel to its registry name.
func kernelName(k kernel.Kernel) (string, int, error) {
	switch kk := k.(type) {
	case *kernel.SqExp:
		return "sqexp", 0, nil
	case *kernel.Matern32:
		return "matern32", 0, nil
	case *kernel.Matern52:
		return "matern52", 0, nil
	case *kernel.SqExpARD:
		return "sqexp-ard", kk.Dim(), nil
	default:
		return "", 0, fmt.Errorf("core: cannot snapshot kernel type %T", k)
	}
}

// kernelFromName reconstructs a kernel and applies the saved parameters.
func kernelFromName(name string, ardDim int, params []float64) (kernel.Kernel, error) {
	var k kernel.Kernel
	switch name {
	case "sqexp":
		k = kernel.NewSqExp(1, 1)
	case "matern32":
		k = kernel.NewMatern32(1, 1)
	case "matern52":
		k = kernel.NewMatern52(1, 1)
	case "sqexp-ard":
		if ardDim <= 0 {
			return nil, fmt.Errorf("core: snapshot ard kernel needs positive dim, got %d", ardDim)
		}
		// One log length-scale per dimension plus the log amplitude; checked
		// before the allocation so a hostile ARDDim cannot size it.
		if len(params) != ardDim+1 {
			return nil, fmt.Errorf("core: snapshot has %d kernel params, %s of dim %d wants %d",
				len(params), name, ardDim, ardDim+1)
		}
		lens := make([]float64, ardDim)
		for i := range lens {
			lens[i] = 1
		}
		k = kernel.NewSqExpARD(1, lens)
	default:
		return nil, fmt.Errorf("core: unknown snapshot kernel %q", name)
	}
	if len(params) != k.NumParams() {
		return nil, fmt.Errorf("core: snapshot has %d kernel params, %s wants %d",
			len(params), name, k.NumParams())
	}
	k.SetParams(params)
	return k, nil
}

// Snapshot captures the evaluator's model state. The snapshot shares the
// model's training rows, which the model never modifies.
func (e *Evaluator) Snapshot() (*Snapshot, error) {
	v, err := e.View()
	if err != nil {
		return nil, err
	}
	return v.Snapshot()
}

// Save writes the evaluator's model state to w in the versioned snapshot
// format (magic + version + gob).
func (e *Evaluator) Save(w io.Writer) error {
	s, err := e.Snapshot()
	if err != nil {
		return err
	}
	return WriteSnapshot(w, s)
}

// WriteSnapshot encodes s to w in the versioned format. The snapshot's
// Version field is stamped to the current format version.
func WriteSnapshot(w io.Writer, s *Snapshot) error {
	s.Version = SnapshotVersion
	if _, err := io.WriteString(w, snapshotMagic); err != nil {
		return fmt.Errorf("core: save: %w", err)
	}
	var ver [4]byte
	binary.LittleEndian.PutUint32(ver[:], uint32(SnapshotVersion))
	if _, err := w.Write(ver[:]); err != nil {
		return fmt.Errorf("core: save: %w", err)
	}
	if err := gob.NewEncoder(w).Encode(s); err != nil {
		return fmt.Errorf("core: save: %w", err)
	}
	return nil
}

// ReadSnapshot decodes a snapshot from r. Input without the magic header, or
// with any version other than SnapshotVersion, is rejected: an older file is
// migrated by booting its snapshot directory once under a build that reads it
// and re-saving with POST /v1/snapshot.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	var head [len(snapshotMagic) + 4]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return nil, fmt.Errorf("core: load: truncated snapshot header: %w", err)
	}
	if string(head[:len(snapshotMagic)]) != snapshotMagic {
		return nil, fmt.Errorf("core: load: no snapshot header (a headerless version-1 file?); this build reads only version %d%s",
			SnapshotVersion, migrateHint)
	}
	if v := binary.LittleEndian.Uint32(head[len(snapshotMagic):]); v != SnapshotVersion {
		return nil, fmt.Errorf("core: load: snapshot version %d not supported; this build reads only version %d%s",
			v, SnapshotVersion, migrateHint)
	}
	var s Snapshot
	if err := gob.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("core: load: %w", err)
	}
	return &s, nil
}

// migrateHint tells an operator holding an older snapshot how to migrate it.
const migrateHint = "; to migrate, boot the snapshot directory once under a build that reads it " +
	"and re-save with POST /v1/snapshot"

// Restore builds an evaluator for the UDF from a snapshot: the saved kernel
// (with its learned hyperparameters) replaces cfg.Kernel, and the saved
// training pairs are installed without calling the UDF.
func Restore(f interface {
	Dim() int
	Eval(x []float64) float64
}, cfg Config, s *Snapshot) (*Evaluator, error) {
	if s.KernelName == "sqexp-ard" && s.ARDDim != f.Dim() {
		return nil, fmt.Errorf("core: snapshot ard kernel has dim %d, UDF wants %d", s.ARDDim, f.Dim())
	}
	k, err := kernelFromName(s.KernelName, s.ARDDim, s.KernelParams)
	if err != nil {
		return nil, err
	}
	cfg.Kernel = k
	if s.Noise > 0 {
		cfg.Noise = s.Noise
	}
	ev, err := NewEvaluator(f, cfg)
	if err != nil {
		return nil, err
	}
	if len(s.X) != len(s.Y) {
		return nil, fmt.Errorf("core: snapshot has %d inputs but %d outputs", len(s.X), len(s.Y))
	}
	for i, x := range s.X {
		if len(x) != f.Dim() {
			return nil, fmt.Errorf("core: snapshot point %d has dim %d, UDF wants %d", i, len(x), f.Dim())
		}
	}
	if s.SparseBudget > 0 {
		// Sparse snapshot: rebuild the model canonically from the persisted
		// training set and inducing indices. Restoring a sparse snapshot
		// always yields a sparse evaluator — the snapshot's budget overrides
		// cfg.SparseBudget — because the exact factors the snapshot's author
		// discarded cannot be recovered per-point-order-faithfully anyway.
		ev.cfg.SparseBudget = s.SparseBudget
		ev.cfg.SparseInflate = s.SparseInflate
		ev.cfg.SparseSwapEvery = s.SparseSwapEvery
		sg, err := gp.NewSparseFromState(ev.cfg.Kernel, ev.cfg.Noise, gp.SparseConfig{
			Budget:    s.SparseBudget,
			Tau:       s.SparseTau,
			Inflate:   s.SparseInflate,
			SwapEvery: s.SparseSwapEvery,
		}, s.X, s.Y, s.SparseInducing)
		if err != nil {
			return nil, fmt.Errorf("core: restore sparse model: %w", err)
		}
		ev.sg, ev.model, ev.g = sg, sg, nil
	} else if ev.g != nil {
		// Exact snapshot into an exact model: the replay frozen builds use,
		// so a restored model's clones match the saved model's bit for bit.
		g, tree, err := replayExact(ev.cfg.Kernel, ev.g.Noise(), s.X, s.Y)
		if err != nil {
			return nil, fmt.Errorf("core: snapshot: %w", err)
		}
		ev.g, ev.model, ev.tree = g, g, tree
	} else {
		// Exact snapshot, but cfg asked for a sparse model: migrate by
		// replaying the pairs through sparse admission.
		for i, x := range s.X {
			if err := ev.model.Add(x, s.Y[i]); err != nil {
				return nil, fmt.Errorf("core: snapshot point %d: %w", i, err)
			}
		}
	}
	for _, y := range s.Y {
		if !ev.haveY || y < ev.yMin {
			ev.yMin = y
		}
		if !ev.haveY || y > ev.yMax {
			ev.yMax = y
		}
		ev.haveY = true
	}
	return ev, nil
}

// Load reads a snapshot from r and restores an evaluator for the UDF.
func Load(f interface {
	Dim() int
	Eval(x []float64) float64
}, cfg Config, r io.Reader) (*Evaluator, error) {
	s, err := ReadSnapshot(r)
	if err != nil {
		return nil, err
	}
	return Restore(f, cfg, s)
}
