package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"math"
	"math/rand"
	"strings"
	"testing"

	"olgapro/internal/gp"
	"olgapro/internal/kernel"
	"olgapro/internal/udf"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := udf.Standard(udf.F3, 31)
	ev, err := NewEvaluator(f, Config{Kernel: kernel.NewSqExp(0.5, 1.5)})
	if err != nil {
		t.Fatal(err)
	}
	// Train on a stream, including a hyperparameter retraining.
	for i := 0; i < 6; i++ {
		if _, err := ev.Eval(gaussianInput(randomCenter(rng, 2), 0.5), rng); err != nil {
			t.Fatal(err)
		}
	}
	wantPoints := ev.GP().Len()
	wantParams := ev.Config().Kernel.Params(nil)

	var buf bytes.Buffer
	if err := ev.Save(&buf); err != nil {
		t.Fatal(err)
	}

	restored, err := Load(f, Config{}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if restored.GP().Len() != wantPoints {
		t.Fatalf("restored %d points, want %d", restored.GP().Len(), wantPoints)
	}
	gotParams := restored.Config().Kernel.Params(nil)
	for i := range wantParams {
		if math.Abs(gotParams[i]-wantParams[i]) > 1e-12 {
			t.Fatalf("kernel params differ: %v vs %v", gotParams, wantParams)
		}
	}
	// Predictions must match exactly: same training data, same kernel.
	for trial := 0; trial < 20; trial++ {
		x := randomCenter(rng, 2)
		m1, v1 := ev.GP().Predict(x)
		m2, v2 := restored.GP().Predict(x)
		if math.Abs(m1-m2) > 1e-9 || math.Abs(v1-v2) > 1e-9 {
			t.Fatalf("restored prediction differs at %v: (%g,%g) vs (%g,%g)", x, m1, v1, m2, v2)
		}
	}
	// The restored evaluator keeps working online without re-paying for the
	// learned region.
	counter := udf.NewCounter(f, 0, nil)
	warm, err := Load(counter, Config{}, mustSave(t, ev))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := warm.Eval(gaussianInput([]float64{5, 5}, 0.5), rng); err != nil {
		t.Fatal(err)
	}
	if counter.Calls() > 10 {
		t.Fatalf("restored evaluator re-paid %d UDF calls", counter.Calls())
	}
}

func mustSave(t *testing.T, ev *Evaluator) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	if err := ev.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return &buf
}

func TestSnapshotKernelFamilies(t *testing.T) {
	kernels := []kernel.Kernel{
		kernel.NewSqExp(1.5, 0.7),
		kernel.NewMatern32(1.2, 0.9),
		kernel.NewMatern52(0.8, 1.1),
		kernel.NewSqExpARD(1.1, []float64{0.5, 2}),
	}
	f := udf.FuncOf{D: 2, F: func(x []float64) float64 { return x[0] + x[1] }}
	for _, k := range kernels {
		ev, err := NewEvaluator(f, Config{Kernel: k})
		if err != nil {
			t.Fatal(err)
		}
		if err := ev.AddTrainingAt([]float64{1, 2}); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := ev.Save(&buf); err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		restored, err := Load(f, Config{}, &buf)
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		got := restored.Config().Kernel.String()
		if !strings.HasPrefix(got, strings.SplitN(k.String(), "(", 2)[0]) {
			t.Fatalf("restored kernel %q for saved %q", got, k.String())
		}
	}
}

// The on-disk snapshot format is one encoding: the writer emits
// magic+version+gob, and the reader refuses every other version — future
// ones and the older forms (the headerless gob, the v2 and v3 headers)
// alike — with an error, never a panic or a silent misread.
func TestSnapshotVersioning(t *testing.T) {
	f := udf.FuncOf{D: 1, F: func(x []float64) float64 { return 2 * x[0] }}
	ev, err := NewEvaluator(f, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.AddTrainingAt([]float64{1}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ev.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if !bytes.HasPrefix(raw, []byte("olgapro-snap\n")) {
		t.Fatalf("saved snapshot missing magic header: %q", raw[:16])
	}
	s, err := ReadSnapshot(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if s.Version != SnapshotVersion {
		t.Fatalf("read version %d, want %d", s.Version, SnapshotVersion)
	}
	if s.Noise <= 0 {
		t.Fatalf("snapshot noise %g, want the model's positive jitter", s.Noise)
	}

	snap, err := ev.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var headerless bytes.Buffer
	if err := gob.NewEncoder(&headerless).Encode(snap); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		data []byte
		want string // substring the refusal must carry
	}{
		{"headerless gob", headerless.Bytes(), "no snapshot header"},
		{"v2 header", withVersion(t, 2, snapshotV2{Version: 2, KernelName: "sqexp",
			KernelParams: snap.KernelParams, Noise: snap.Noise, X: snap.X, Y: snap.Y}), "version 2"},
		{"v3 header", withVersion(t, 3, snap), "version 3"},
		{"future version", withVersion(t, 0xEE, snap), "version 238"},
	} {
		_, err := ReadSnapshot(bytes.NewReader(c.data))
		if err == nil {
			t.Fatalf("%s: snapshot accepted", c.name)
		}
		if !strings.Contains(err.Error(), c.want) || !strings.Contains(err.Error(), "POST /v1/snapshot") {
			t.Fatalf("%s: refusal %q does not name %q and the migration", c.name, err, c.want)
		}
	}
}

// snapshotV2 is the exact field set the version-2 writer gob-encoded — no
// Sparse* fields and no ModelSeq. Gob matches struct fields by name, so
// encoding this local type reproduces a v2 byte stream faithfully.
type snapshotV2 struct {
	Version      int
	KernelName   string
	KernelParams []float64
	ARDDim       int
	Noise        float64
	X            [][]float64
	Y            []float64
}

// withVersion hand-crafts a snapshot file under an arbitrary header version:
// magic, little-endian version word, then the gob-encoded payload.
func withVersion(t *testing.T, version uint32, payload any) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteString("olgapro-snap\n")
	var ver [4]byte
	binary.LittleEndian.PutUint32(ver[:], version)
	buf.Write(ver[:])
	if err := gob.NewEncoder(&buf).Encode(payload); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// An exact snapshot loaded under a sparse config migrates: the pairs replay
// through sparse admission instead of the exact factors. A replica reaches
// this branch when it installs a peer's snapshot under a sparse spec.
func TestSnapshotExactToSparseMigration(t *testing.T) {
	f := udf.FuncOf{D: 1, F: func(x []float64) float64 { return 2 * x[0] }}
	ev, err := NewEvaluator(f, Config{Kernel: kernel.NewMatern32(1.3, 0.8)})
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{1, 2, 3.5} {
		if err := ev.AddTrainingAt([]float64{x}); err != nil {
			t.Fatal(err)
		}
	}
	if ev.Sparse() != nil {
		t.Fatal("source evaluator came up sparse")
	}
	sp, err := Load(f, Config{SparseBudget: 8}, mustSave(t, ev))
	if err != nil {
		t.Fatalf("exact → sparse migration failed: %v", err)
	}
	if sp.Sparse() == nil {
		t.Fatal("sparse config ignored when migrating an exact snapshot")
	}
	if sp.Points() != ev.Points() {
		t.Fatalf("migration lost points: %d, want %d", sp.Points(), ev.Points())
	}
	if got := sp.Sparse().InducingLen(); got < 1 || got > 8 {
		t.Fatalf("migrated inducing set has %d points, want 1..8", got)
	}
	// The migrated model still interpolates its training outputs.
	var sc gp.Scratch
	if m, _ := sp.Model().PredictWith(&sc, []float64{2}); math.Abs(m-4) > 1e-3 {
		t.Fatalf("migrated model predicts %g at a training point with y=4", m)
	}
}

// A sparse evaluator survives save → load with its budget, inducing set, and
// served bytes intact: both sides' frozen clones are canonical rebuilds from
// the same state, so their predictions must agree bit-for-bit.
func TestSparseSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f := udf.Standard(udf.F3, 31)
	ev, err := NewEvaluator(f, Config{
		Kernel:       kernel.NewSqExp(0.5, 1.5),
		SparseBudget: 24,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := ev.Eval(gaussianInput(randomCenter(rng, 2), 0.5), rng); err != nil {
			t.Fatal(err)
		}
	}
	if ev.Sparse() == nil {
		t.Fatal("evaluator did not come up sparse")
	}

	// The snapshot records the sparse shape.
	snap, err := ev.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.SparseBudget != 24 {
		t.Fatalf("snapshot budget %d, want 24", snap.SparseBudget)
	}
	if len(snap.SparseInducing) != ev.Sparse().InducingLen() {
		t.Fatalf("snapshot has %d inducing indices, model has %d",
			len(snap.SparseInducing), ev.Sparse().InducingLen())
	}

	// Restoring with a plain config still yields a sparse model: the
	// snapshot's budget wins.
	restored, err := Load(f, Config{}, mustSave(t, ev))
	if err != nil {
		t.Fatal(err)
	}
	if restored.Sparse() == nil {
		t.Fatal("sparse snapshot restored as an exact model")
	}
	if restored.Points() != ev.Points() {
		t.Fatalf("restored %d points, want %d", restored.Points(), ev.Points())
	}
	ind, rind := ev.Sparse().Inducing(), restored.Sparse().Inducing()
	if len(ind) != len(rind) {
		t.Fatalf("restored %d inducing points, want %d", len(rind), len(ind))
	}
	for i := range ind {
		if ind[i] != rind[i] {
			t.Fatalf("inducing set differs at %d: %d vs %d", i, rind[i], ind[i])
		}
	}

	// Frozen clones on both sides rebuild canonically from identical state
	// and must serve bit-identical numbers.
	c1, err := ev.CloneFrozen()
	if err != nil {
		t.Fatal(err)
	}
	c2, err := restored.CloneFrozen()
	if err != nil {
		t.Fatal(err)
	}
	var sc1, sc2 gp.Scratch
	for trial := 0; trial < 50; trial++ {
		x := randomCenter(rng, 2)
		m1, v1 := c1.Model().PredictWith(&sc1, x)
		m2, v2 := c2.Model().PredictWith(&sc2, x)
		if m1 != m2 || v1 != v2 {
			t.Fatalf("sparse restore not bit-identical at %v: (%g,%g) vs (%g,%g)",
				x, m1, v1, m2, v2)
		}
	}
}

func TestLoadRejectsCorruptData(t *testing.T) {
	f := udf.FuncOf{D: 1, F: func(x []float64) float64 { return x[0] }}
	if _, err := Load(f, Config{}, strings.NewReader("not gob")); err == nil {
		t.Fatal("garbage should fail")
	}
	// Mismatched dimensions.
	s := &Snapshot{KernelName: "sqexp", KernelParams: []float64{0, 0},
		X: [][]float64{{1, 2}}, Y: []float64{3}}
	if _, err := Restore(f, Config{}, s); err == nil {
		t.Fatal("dim mismatch should fail")
	}
	// Unknown kernel.
	s2 := &Snapshot{KernelName: "mystery", KernelParams: []float64{0}}
	if _, err := Restore(f, Config{}, s2); err == nil {
		t.Fatal("unknown kernel should fail")
	}
	// Wrong parameter count.
	s3 := &Snapshot{KernelName: "sqexp", KernelParams: []float64{0}}
	if _, err := Restore(f, Config{}, s3); err == nil {
		t.Fatal("wrong param count should fail")
	}
	// Mismatched X/Y lengths.
	s4 := &Snapshot{KernelName: "sqexp", KernelParams: []float64{0, 0},
		X: [][]float64{{1}}, Y: nil}
	if _, err := Restore(f, Config{}, s4); err == nil {
		t.Fatal("X/Y mismatch should fail")
	}
}
