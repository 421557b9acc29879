package udf

import (
	"math"
	"testing"
	"time"

	"olgapro/internal/vclock"
)

func TestFuncOf(t *testing.T) {
	f := FuncOf{D: 2, F: func(x []float64) float64 { return x[0] + x[1] }}
	if f.Dim() != 2 {
		t.Fatalf("Dim = %d", f.Dim())
	}
	if got := f.Eval([]float64{1, 2}); got != 3 {
		t.Fatalf("Eval = %g", got)
	}
}

func TestCounterCountsAndCharges(t *testing.T) {
	var clk vclock.Clock
	f := FuncOf{D: 1, F: func(x []float64) float64 { return x[0] }}
	c := NewCounter(f, time.Millisecond, &clk)
	for i := 0; i < 10; i++ {
		c.Eval([]float64{float64(i)})
	}
	if c.Calls() != 10 {
		t.Fatalf("Calls = %d", c.Calls())
	}
	if got := clk.Charged(); got != 10*time.Millisecond {
		t.Fatalf("Charged = %v", got)
	}
	if c.Dim() != 1 {
		t.Fatalf("Dim = %d", c.Dim())
	}
}

func TestCounterWithoutClock(t *testing.T) {
	f := FuncOf{D: 1, F: func(x []float64) float64 { return 2 * x[0] }}
	c := NewCounter(f, time.Second, nil)
	if got := c.Eval([]float64{3}); got != 6 {
		t.Fatalf("Eval = %g", got)
	}
	if c.Calls() != 1 {
		t.Fatalf("Calls = %d", c.Calls())
	}
}

func TestNewMixtureValidation(t *testing.T) {
	bad := []MixtureConfig{
		{Dim: 0, Components: 1, Lo: 0, Hi: 1, Spread: 1},
		{Dim: 1, Components: 0, Lo: 0, Hi: 1, Spread: 1},
		{Dim: 1, Components: 1, Lo: 0, Hi: 1, Spread: 0},
		{Dim: 1, Components: 1, Lo: 1, Hi: 1, Spread: 1},
	}
	for i, cfg := range bad {
		if _, err := NewMixture(cfg); err == nil {
			t.Errorf("config %d should be rejected", i)
		}
	}
}

func TestMixtureShape(t *testing.T) {
	m, err := NewMixture(MixtureConfig{
		Dim: 2, Components: 3, Lo: 0, Hi: 10, Spread: 1, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Dim() != 2 || len(m.centers) != 3 {
		t.Fatalf("Dim/components = %d/%d", m.Dim(), len(m.centers))
	}
	// Values near a center are larger than values far from all centers.
	center := m.centers[0]
	far := []float64{center[0] + 50, center[1] + 50}
	if m.Eval(center) <= m.Eval(far) {
		t.Fatalf("no peak at center: %g vs %g", m.Eval(center), m.Eval(far))
	}
	if m.Eval(far) > 1e-6 {
		t.Fatalf("far value %g should be ≈ 0", m.Eval(far))
	}
	// Non-negative everywhere.
	if m.Eval([]float64{-100, 100}) < 0 {
		t.Fatal("mixture went negative")
	}
}

func TestMixtureDeterministicInSeed(t *testing.T) {
	cfg := MixtureConfig{Dim: 2, Components: 5, Lo: 0, Hi: 10, Spread: 0.7, Seed: 42}
	m1, _ := NewMixture(cfg)
	m2, _ := NewMixture(cfg)
	x := []float64{3.3, 4.4}
	if m1.Eval(x) != m2.Eval(x) {
		t.Fatal("same seed gave different functions")
	}
	cfg.Seed = 43
	m3, _ := NewMixture(cfg)
	if m1.Eval(x) == m3.Eval(x) {
		t.Fatal("different seeds gave identical functions")
	}
}

func TestStandardFamily(t *testing.T) {
	suite := StandardSuite(7)
	if len(suite) != 4 {
		t.Fatalf("suite size %d", len(suite))
	}
	if len(suite[0].centers) != 1 || len(suite[1].centers) != 1 ||
		len(suite[2].centers) != 5 || len(suite[3].centers) != 5 {
		t.Fatalf("component counts wrong")
	}
	// F4 (small spread) must vary faster than F1 (large spread): compare
	// mean absolute gradient proxies over a grid.
	rough := func(m *Mixture) float64 {
		var total float64
		const n = 50
		for i := 0; i < n; i++ {
			x := DomainLo + (DomainHi-DomainLo)*float64(i)/(n-1)
			for j := 0; j < n; j++ {
				y := DomainLo + (DomainHi-DomainLo)*float64(j)/(n-1)
				v1 := m.Eval([]float64{x, y})
				v2 := m.Eval([]float64{x + 0.05, y})
				total += math.Abs(v2 - v1)
			}
		}
		return total
	}
	if rough(suite[3]) <= rough(suite[0]) {
		t.Fatalf("F4 not rougher than F1: %g vs %g", rough(suite[3]), rough(suite[0]))
	}
}

func TestFamilyString(t *testing.T) {
	if F1.String() != "Funct1" || F4.String() != "Funct4" {
		t.Fatalf("names: %s %s", F1, F4)
	}
	if Family(9).String() == "" {
		t.Fatal("unknown family should still render")
	}
}

func TestStandardPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Standard(Family(0), 1)
}

func TestDimMixture(t *testing.T) {
	for _, d := range []int{1, 3, 10} {
		m := DimMixture(d, 5)
		if m.Dim() != d {
			t.Fatalf("DimMixture(%d).Dim() = %d", d, m.Dim())
		}
		x := make([]float64, d)
		for i := range x {
			x[i] = 5
		}
		if v := m.Eval(x); math.IsNaN(v) || v < 0 {
			t.Fatalf("DimMixture(%d) value %g", d, v)
		}
	}
}

func TestRangeOnGrid(t *testing.T) {
	// Known function: f(x,y) = x + y on [0,10]² ranges over [0,20].
	f := FuncOf{D: 2, F: func(x []float64) float64 { return x[0] + x[1] }}
	min, max := RangeOnGrid(f, 0, 10, 21)
	if min != 0 || max != 20 {
		t.Fatalf("RangeOnGrid = [%g,%g], want [0,20]", min, max)
	}
	// High dimension gets its grid clamped but still works.
	g := FuncOf{D: 6, F: func(x []float64) float64 { return x[0] }}
	min, max = RangeOnGrid(g, 0, 1, 50)
	if min != 0 || max != 1 {
		t.Fatalf("clamped RangeOnGrid = [%g,%g]", min, max)
	}
}

func BenchmarkMixtureEvalF4(b *testing.B) {
	m := Standard(F4, 1)
	x := []float64{5, 5}
	for i := 0; i < b.N; i++ {
		m.Eval(x)
	}
}
