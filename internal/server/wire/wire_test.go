package wire

import (
	"encoding/json"
	"math"
	"testing"

	"olgapro/internal/dist"
	"olgapro/internal/query"
)

func TestDistSpecRoundTrip(t *testing.T) {
	specs := []DistSpec{
		{Type: "normal", Mu: 5, Sigma: 0.5},
		{Type: "uniform", Lo: -1, Hi: 2},
		{Type: "gamma", Shape: 2.2, Scale: 0.09, Loc: 0.01},
		{Type: "exponential", Rate: 3},
		{Type: "constant", Value: 42},
		{Type: "mixture", Weights: []float64{1, 3}, Components: []DistSpec{
			{Type: "normal", Mu: -2, Sigma: 0.5},
			{Type: "normal", Mu: 2, Sigma: 1},
		}},
	}
	for _, s := range specs {
		d, err := s.Dist()
		if err != nil {
			t.Fatalf("%s: %v", s.Type, err)
		}
		back, err := SpecOf(d)
		if err != nil {
			t.Fatalf("%s: SpecOf: %v", s.Type, err)
		}
		d2, err := back.Dist()
		if err != nil {
			t.Fatalf("%s: re-decode: %v", s.Type, err)
		}
		// The round-tripped distribution must be the same measure.
		for _, q := range []float64{-3, -1, 0, 0.5, 1, 2, 5, 50} {
			if a, b := d.CDF(q), d2.CDF(q); math.Abs(a-b) > 1e-12 {
				t.Fatalf("%s: CDF(%g) differs after round trip: %g vs %g", s.Type, q, a, b)
			}
		}
	}
}

func TestDistSpecJSON(t *testing.T) {
	raw := `{"type":"mixture","weights":[0.3,0.7],"components":[
		{"type":"uniform","lo":0,"hi":1},
		{"type":"gamma","shape":2,"scale":1.5}]}`
	var s DistSpec
	if err := json.Unmarshal([]byte(raw), &s); err != nil {
		t.Fatal(err)
	}
	d, err := s.Dist()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := d.(*dist.Mixture); !ok {
		t.Fatalf("decoded %T, want *dist.Mixture", d)
	}
}

func TestDistSpecValidation(t *testing.T) {
	bad := []DistSpec{
		{},
		{Type: "laplace"},
		{Type: "normal", Mu: 1, Sigma: 0},
		{Type: "normal", Mu: 1, Sigma: -2},
		{Type: "uniform", Lo: 2, Hi: 2},
		{Type: "gamma", Shape: 0, Scale: 1},
		{Type: "gamma", Shape: 1, Scale: -1},
		{Type: "exponential"},
		{Type: "mixture"},
		{Type: "mixture", Components: []DistSpec{{Type: "normal"}}},
		{Type: "mixture", Weights: []float64{-1}, Components: []DistSpec{{Type: "constant"}}},
		// Specs whose samples could overflow float64.
		{Type: "normal", Mu: 3, Sigma: 1e308},
		{Type: "uniform", Lo: -1e308, Hi: 1e308},
		{Type: "gamma", Shape: 2, Scale: 1e308},
		{Type: "exponential", Rate: 1e-307},
		{Type: "mixture", Components: []DistSpec{{Type: "normal", Sigma: 1}, {Type: "normal", Sigma: 1e308}}},
	}
	for i, s := range bad {
		if _, err := s.Dist(); err == nil {
			t.Fatalf("bad spec %d (%+v) accepted", i, s)
		}
	}
}

func TestInputSpecTupleAndVector(t *testing.T) {
	in := InputSpec{
		{Type: "normal", Mu: 0.5, Sigma: 0.1},
		{Type: "constant", Value: 2},
	}
	v, err := in.Vector()
	if err != nil {
		t.Fatal(err)
	}
	if v.Dim() != 2 {
		t.Fatalf("vector dim %d, want 2", v.Dim())
	}
	tup, err := in.Tuple(7)
	if err != nil {
		t.Fatal(err)
	}
	if got := tup.MustGet("id").I; got != 7 {
		t.Fatalf("id %d, want 7", got)
	}
	// The tuple's input vector must agree with the direct one: same joint
	// distribution under the canonical attribute names.
	names := AttrNames(2)
	tv, err := query.InputVectorFor(tup, names)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []float64{0.3, 0.5, 0.9} {
		// Compare the marginals via sampling-free CDF checks on component 0.
		d0 := tup.MustGet(names[0]).D
		if a, b := d0.CDF(q), (dist.Normal{Mu: 0.5, Sigma: 0.1}).CDF(q); math.Abs(a-b) > 1e-15 {
			t.Fatalf("marginal CDF differs: %g vs %g", a, b)
		}
	}
	if tv.Dim() != v.Dim() {
		t.Fatalf("tuple vector dim %d ≠ %d", tv.Dim(), v.Dim())
	}

	if _, err := (InputSpec{{Type: "bogus"}}).Tuple(0); err == nil {
		t.Fatal("invalid input spec accepted")
	}
	if _, err := (InputSpec{{Type: "bogus"}}).Vector(); err == nil {
		t.Fatal("invalid input spec accepted by Vector")
	}
}
