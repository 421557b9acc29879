// Package udf defines the black-box user-defined-function abstraction the
// whole system is built around (paper §1), plus the instrumentation wrappers
// and the synthetic Gaussian-mixture function generator used throughout the
// paper's evaluation (§6.1-A, Fig. 4).
//
// A UDF is a scalar function of a d-dimensional input; the system never
// inspects its body, only calls Eval. Counter wraps a Func to count
// evaluations and charge their nominal cost to a virtual clock.
package udf

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"time"

	"olgapro/internal/vclock"
)

// Func is a black-box scalar UDF on ℝᵈ.
type Func interface {
	// Dim returns the number of inputs d.
	Dim() int
	// Eval evaluates the function at x, which must have length Dim().
	Eval(x []float64) float64
}

// FuncOf adapts a plain Go function into a Func.
type FuncOf struct {
	D int
	F func(x []float64) float64
}

// Dim returns the declared dimensionality.
func (f FuncOf) Dim() int { return f.D }

// Eval calls the wrapped function.
func (f FuncOf) Eval(x []float64) float64 { return f.F(x) }

// Counter wraps a Func, counting calls and (optionally) charging each call's
// nominal evaluation time to a virtual clock. It is the instrument behind
// every experiment that varies the UDF evaluation time T.
type Counter struct {
	F     Func
	Cost  time.Duration // nominal evaluation time per call (may be 0)
	Clock *vclock.Clock // nil disables charging
	n     int64
}

// NewCounter wraps f, charging cost per call to clock (either may be zero).
func NewCounter(f Func, cost time.Duration, clock *vclock.Clock) *Counter {
	return &Counter{F: f, Cost: cost, Clock: clock}
}

// Dim returns the wrapped function's dimensionality.
func (c *Counter) Dim() int { return c.F.Dim() }

// Eval evaluates the wrapped function, counting and charging the call.
func (c *Counter) Eval(x []float64) float64 {
	atomic.AddInt64(&c.n, 1)
	if c.Clock != nil {
		c.Clock.Charge(1, c.Cost)
	}
	return c.F.Eval(x)
}

// Calls returns the number of evaluations so far.
func (c *Counter) Calls() int { return int(atomic.LoadInt64(&c.n)) }

// Mixture is a Gaussian-mixture test function
//
//	f(x) = Σ_i w_i exp(−‖x − c_i‖² / (2 s_i²))
//
// the controllable-shape function family of §6.1-A: the number of
// components dictates the number of peaks, and the component spread s_i
// dictates bumpiness/spikiness. (This models the *function*, not any input
// or output distribution.)
type Mixture struct {
	dim     int
	weights []float64
	centers [][]float64
	spreads []float64
}

// MixtureConfig describes a random mixture function.
type MixtureConfig struct {
	Dim        int     // input dimensionality d
	Components int     // number of Gaussian bumps
	Lo, Hi     float64 // domain [Lo,Hi]^d the centers are drawn from
	Spread     float64 // component spread s (same for all components)
	Seed       int64
}

// minWeight is the lower end of the range [minWeight, 1] component weights
// are drawn from.
const minWeight = 0.5

// NewMixture draws a random mixture function per the config.
func NewMixture(cfg MixtureConfig) (*Mixture, error) {
	if cfg.Dim <= 0 || cfg.Components <= 0 {
		return nil, fmt.Errorf("udf: mixture needs positive dim/components, got %d/%d", cfg.Dim, cfg.Components)
	}
	if cfg.Spread <= 0 {
		return nil, fmt.Errorf("udf: mixture needs positive spread, got %g", cfg.Spread)
	}
	if cfg.Hi <= cfg.Lo {
		return nil, fmt.Errorf("udf: mixture domain [%g,%g] empty", cfg.Lo, cfg.Hi)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &Mixture{dim: cfg.Dim}
	for i := 0; i < cfg.Components; i++ {
		c := make([]float64, cfg.Dim)
		for j := range c {
			// Keep centers away from the very edge so peaks are in-domain.
			margin := 0.1 * (cfg.Hi - cfg.Lo)
			c[j] = cfg.Lo + margin + rng.Float64()*(cfg.Hi-cfg.Lo-2*margin)
		}
		m.centers = append(m.centers, c)
		m.weights = append(m.weights, minWeight+rng.Float64()*(1-minWeight))
		m.spreads = append(m.spreads, cfg.Spread)
	}
	return m, nil
}

// Dim returns the input dimensionality.
func (m *Mixture) Dim() int { return m.dim }

// Eval returns the mixture value at x.
func (m *Mixture) Eval(x []float64) float64 {
	var s float64
	for i, c := range m.centers {
		var d2 float64
		for j, v := range x {
			dd := v - c[j]
			d2 += dd * dd
		}
		sp := m.spreads[i]
		s += m.weights[i] * math.Exp(-d2/(2*sp*sp))
	}
	return s
}

// StandardDomain is the default function domain [L,U] = [0,10] (§6.1).
const (
	DomainLo = 0.0
	DomainHi = 10.0
)

// Family identifies the four standard 2-D evaluation functions of Fig. 4:
// the combinations of {one, five} components × {large, small} spread.
type Family int

// The four standard functions, ordered as in the paper:
// F1 is flat with one peak; F4 is the bumpiest and spikiest.
const (
	F1 Family = iota + 1 // 1 component, large spread (flat)
	F2                   // 1 component, small spread (single spike)
	F3                   // 5 components, large spread (bumpy)
	F4                   // 5 components, small spread (bumpy and spiky)
)

// String names the family member.
func (f Family) String() string {
	switch f {
	case F1:
		return "Funct1"
	case F2:
		return "Funct2"
	case F3:
		return "Funct3"
	case F4:
		return "Funct4"
	default:
		return fmt.Sprintf("Family(%d)", int(f))
	}
}

// largeSpread and smallSpread control the bumpiness of the standard family
// relative to the [0,10] domain.
const (
	largeSpread = 2.5
	smallSpread = 0.7
)

// Standard returns one of the paper's four standard 2-D functions,
// deterministically derived from the seed.
func Standard(f Family, seed int64) *Mixture {
	cfg := MixtureConfig{Dim: 2, Lo: DomainLo, Hi: DomainHi, Seed: seed + int64(f)*1000}
	switch f {
	case F1:
		cfg.Components, cfg.Spread = 1, largeSpread
	case F2:
		cfg.Components, cfg.Spread = 1, smallSpread
	case F3:
		cfg.Components, cfg.Spread = 5, largeSpread
	case F4:
		cfg.Components, cfg.Spread = 5, smallSpread
	default:
		panic(fmt.Sprintf("udf: unknown family %d", int(f)))
	}
	m, err := NewMixture(cfg)
	if err != nil {
		panic(err) // unreachable: config is well-formed by construction
	}
	return m
}

// StandardSuite returns F1..F4 in order.
func StandardSuite(seed int64) []*Mixture {
	return []*Mixture{
		Standard(F1, seed), Standard(F2, seed), Standard(F3, seed), Standard(F4, seed),
	}
}

// DimMixture returns a d-dimensional analogue of the standard family used by
// the dimensionality sweep (Expt 7): five components with the small spread.
func DimMixture(d int, seed int64) *Mixture {
	m, err := NewMixture(MixtureConfig{
		Dim: d, Components: 5, Lo: DomainLo, Hi: DomainHi,
		Spread: smallSpread * math.Sqrt(float64(d)/2), Seed: seed,
	})
	if err != nil {
		panic(err) // unreachable
	}
	return m
}

// RangeOnGrid estimates the min and max of f over [lo,hi]^d by evaluating a
// regular grid with per-dimension resolution steps (clamped for high d so
// the total stays bounded). The output range calibrates λ and Γ, which the
// paper sets as percentages of the function range.
func RangeOnGrid(f Func, lo, hi float64, steps int) (min, max float64) {
	d := f.Dim()
	// Bound total evaluations at ~20k.
	for steps > 2 && pow(steps, d) > 20000 {
		steps--
	}
	if steps < 2 {
		steps = 2
	}
	x := make([]float64, d)
	idx := make([]int, d)
	min, max = math.Inf(1), math.Inf(-1)
	for {
		for j := 0; j < d; j++ {
			x[j] = lo + (hi-lo)*float64(idx[j])/float64(steps-1)
		}
		v := f.Eval(x)
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
		// Odometer increment.
		j := 0
		for ; j < d; j++ {
			idx[j]++
			if idx[j] < steps {
				break
			}
			idx[j] = 0
		}
		if j == d {
			return min, max
		}
	}
}

func pow(b, e int) int {
	out := 1
	for i := 0; i < e; i++ {
		out *= b
		if out > 1<<30 {
			return out
		}
	}
	return out
}
