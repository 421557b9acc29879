package dist

import "math"

// Bounds on math/rand's variates, from its samplers: every uniform draw
// Float64 makes is 0 or at least 2⁻⁶³ (Int63()/2⁶³), so the ziggurat tails
// are bounded once a zero draw is set aside. A zero draw has probability
// 2⁻⁶³ and makes ExpFloat64 infinite whatever the rate, so the bounds cover
// every draw but that one.
const (
	// maxNormVariate bounds |NormFloat64()|: its tail returns
	// rn − ln(u)/rn with rn = 3.442619855899, at most 16.13 for u ≥ 2⁻⁶³.
	maxNormVariate = 16.2
	// maxExpVariate bounds ExpFloat64(): its tail returns re − ln(u) with
	// re = 7.69711747013104972, at most 51.37 for u ≥ 2⁻⁶³.
	maxExpVariate = 51.4
)

// SamplesFinite reports whether every draw d's Sample can make is finite,
// by bounding the sampler's own arithmetic with the variate bounds above:
// rounding is monotone, so a bound that stays finite keeps every draw
// finite. A mixture is finite when each component is; a family this
// package does not define is reported as not finite. A family's value and
// a pointer to it answer alike.
func SamplesFinite(d Dist) bool {
	f, ok := d.(interface{ samplesFinite() bool })
	return ok && f.samplesFinite()
}

func (n Normal) samplesFinite() bool {
	return finite(math.Abs(n.Mu) + math.Abs(n.Sigma)*maxNormVariate)
}

// A + u(B−A) for u in [0, 1) stays finite when the endpoints are within
// half the float64 range.
func (u Uniform) samplesFinite() bool {
	const half = math.MaxFloat64 / 2
	return u.A >= -half && u.A <= half && u.B >= -half && u.B <= half
}

func (g Gamma) samplesFinite() bool {
	if g.degenerate() {
		return finite(g.Loc)
	}
	// Loc + Theta·boost·d·v, boost ≤ 1, v = (1 + c·x)³ for a normal x.
	k := g.K
	if k < 1 {
		k++
	}
	dd := k - 1.0/3.0
	c := 1 / math.Sqrt(9*dd)
	v := 1 + c*maxNormVariate
	v = v * v * v
	return finite(g.Loc) && finite(math.Abs(g.Loc)+g.Theta*dd*v)
}

func (e Exponential) samplesFinite() bool { return e.Rate <= 0 || finite(maxExpVariate/e.Rate) }

func (c Constant) samplesFinite() bool { return finite(c.V) }

func (m *Mixture) samplesFinite() bool {
	for _, c := range m.comps {
		if !SamplesFinite(c) {
			return false
		}
	}
	return true
}

func finite(x float64) bool { return !math.IsInf(x, 0) && !math.IsNaN(x) }
