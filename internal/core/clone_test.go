package core

import (
	"bytes"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"testing"

	"olgapro/internal/dist"
	"olgapro/internal/kernel"
	"olgapro/internal/udf"
)

func cloneTestUDF() udf.Func {
	return udf.FuncOf{D: 2, F: func(x []float64) float64 {
		return x[0]*x[0] + 0.5*x[1]
	}}
}

func warmedEvaluator(t *testing.T) *Evaluator {
	t.Helper()
	ev, err := NewEvaluator(cloneTestUDF(), Config{
		Kernel:         kernel.NewSqExp(1, 0.5),
		SampleOverride: 80,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	in, err := dist.IsoGaussianVec([]float64{0.5, 0.5}, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := ev.Eval(in, rng); err != nil {
			t.Fatal(err)
		}
	}
	return ev
}

func TestCloneFrozenRequiresWarmup(t *testing.T) {
	ev, err := NewEvaluator(cloneTestUDF(), Config{Kernel: kernel.NewSqExp(1, 0.5)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ev.CloneFrozen(); err == nil {
		t.Fatal("cold evaluator must be rejected: its bootstrap would mutate the frozen model")
	}
}

func TestCloneFrozenIsPureAndIndependent(t *testing.T) {
	ev := warmedEvaluator(t)
	srcPoints := ev.GP().Len()

	c1, err := ev.CloneFrozen()
	if err != nil {
		t.Fatal(err)
	}
	c2, err := ev.CloneFrozen()
	if err != nil {
		t.Fatal(err)
	}
	if !c1.Frozen() || ev.Frozen() {
		t.Fatal("Frozen flags wrong")
	}
	if c1.GP().Len() != srcPoints {
		t.Fatalf("clone has %d points, source %d", c1.GP().Len(), srcPoints)
	}

	in, err := dist.IsoGaussianVec([]float64{0.55, 0.45}, 0.12)
	if err != nil {
		t.Fatal(err)
	}
	// Identical seeds → bit-identical outputs from two sibling clones, even
	// with unequal interleaved histories (c1 evaluates extra inputs first).
	if _, err := c1.Eval(in, rand.New(rand.NewSource(77))); err != nil {
		t.Fatal(err)
	}
	o1, err := c1.Eval(in, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	o2, err := c2.Eval(in, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	v1, v2 := o1.Dist.Values(), o2.Dist.Values()
	if len(v1) != len(v2) {
		t.Fatalf("sample counts differ: %d vs %d", len(v1), len(v2))
	}
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Fatalf("sample %d differs: %v vs %v (clone Eval is not pure)", i, v1[i], v2[i])
		}
	}
	if o1.Engine != EngineGP {
		t.Errorf("output engine = %v, want GP", o1.Engine)
	}

	// Frozen means frozen: no UDF calls, no training points, ever.
	st := c1.Stats()
	if st.UDFCalls != 0 || st.PointsAdded != 0 || st.Retrainings != 0 {
		t.Fatalf("frozen clone mutated its model: %+v", st)
	}
	if c1.GP().Len() != srcPoints || ev.GP().Len() != srcPoints {
		t.Fatal("training-set sizes drifted")
	}

	// The source keeps learning independently of its clones.
	if _, err := ev.Eval(in, rand.New(rand.NewSource(5))); err != nil {
		t.Fatal(err)
	}
	if c1.GP().Len() != srcPoints {
		t.Fatal("source training leaked into a clone")
	}
}

// TestReplicaClonesMatchOwnerClones pins the replica-drift fix: a frozen
// clone of a retrained owner and a frozen clone of the owner's snapshot
// restored elsewhere (the replica path: WriteSnapshot → ReadSnapshot →
// Restore → CloneFrozen) hold identical hyperparameters, so they serve
// identical distributions. The seeded learning run below retrains to a
// length scale whose exp/log round trip, taken twice, moves by one ulp —
// the case in which a replica that recomputed its parameters drifted.
func TestReplicaClonesMatchOwnerClones(t *testing.T) {
	f := udf.FuncOf{D: 2, F: func(x []float64) float64 { return x[0]*x[0] + 0.5*x[1] + 0.3*x[0]*x[1] }}
	owner, err := NewEvaluator(f, Config{Eps: 0.2, Delta: 0.1, Kernel: kernel.NewSqExp(1, 0.5)})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(48))
	inputs := make([]dist.Vector, 64)
	for i := range inputs {
		in, err := dist.IsoGaussianVec([]float64{0.3 + 0.4*rng.Float64(), 0.3 + 0.4*rng.Float64()}, 0.15)
		if err != nil {
			t.Fatal(err)
		}
		inputs[i] = in
		if i < 24 {
			if _, err := owner.Eval(in, rng); err != nil {
				t.Fatal(err)
			}
		}
	}
	twice := false
	for _, p := range owner.Config().Kernel.Params(nil) {
		l := math.Log(math.Exp(p))
		twice = twice || math.Log(math.Exp(l)) != l
	}
	if owner.Stats().Retrainings == 0 || !twice {
		t.Fatal("the learning run no longer retrains to a drifting parameter; pick another seed")
	}
	var buf bytes.Buffer
	if err := owner.Save(&buf); err != nil {
		t.Fatal(err)
	}
	snap, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	replica, err := Restore(f, owner.Config(), snap)
	if err != nil {
		t.Fatal(err)
	}
	ownerClone, err := owner.CloneFrozen()
	if err != nil {
		t.Fatal(err)
	}
	replicaClone, err := replica.CloneFrozen()
	if err != nil {
		t.Fatal(err)
	}
	if o, r := ownerClone.Config().Kernel.Params(nil), replicaClone.Config().Kernel.Params(nil); !slices.Equal(o, r) {
		t.Fatalf("kernel parameters drift: owner clone %v, replica clone %v", o, r)
	}
	for i, in := range inputs {
		a, err := ownerClone.Eval(in, rand.New(rand.NewSource(int64(i))))
		if err != nil {
			t.Fatal(err)
		}
		b, err := replicaClone.Eval(in, rand.New(rand.NewSource(int64(i))))
		if err != nil {
			t.Fatal(err)
		}
		ha, hb := fnv.New64a(), fnv.New64a()
		digestFloats(ha, a.Dist.Values()...)
		digestFloats(hb, b.Dist.Values()...)
		if ha.Sum64() != hb.Sum64() {
			t.Fatalf("tuple %d: owner clone support hash %#x, replica clone %#x", i, ha.Sum64(), hb.Sum64())
		}
	}
}
