package ecdf

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"
)

// decodePairs reads (mean, sd) pairs from raw fuzz bytes, capped at
// maxPairs. By default it sanitizes to finite means and non-negative finite
// sds; with raw it keeps every pair as decoded, NaN and ±∞ included.
func decodePairs(data []byte, maxPairs int, raw bool) (means, sds []float64) {
	for len(data) >= 16 && len(means) < maxPairs {
		m := math.Float64frombits(binary.LittleEndian.Uint64(data[:8]))
		s := math.Float64frombits(binary.LittleEndian.Uint64(data[8:16]))
		data = data[16:]
		if !raw {
			if math.IsNaN(m) || math.IsInf(m, 0) || math.IsNaN(s) || math.IsInf(s, 0) {
				continue
			}
			if math.Abs(m) > 1e9 {
				m = math.Mod(m, 1e9)
			}
			if math.Abs(s) > 1e9 {
				s = math.Mod(s, 1e9)
			}
		}
		means = append(means, m)
		sds = append(sds, math.Abs(s))
	}
	return means, sds
}

// sanitizePos clamps a fuzzed float into [0, hi], mapping non-finite to def.
func sanitizePos(v, hi, def float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return def
	}
	v = math.Abs(v)
	if v > hi {
		v = math.Mod(v, hi)
	}
	return v
}

// envelopeFromPairs builds a structurally valid envelope (per-sample
// lower ≤ mean ≤ upper) from fuzzed (mean, sd) pairs.
func envelopeFromPairs(means, sds []float64, z float64) Envelope {
	n := len(means)
	mean := make([]float64, n)
	lower := make([]float64, n)
	upper := make([]float64, n)
	for i := range means {
		mean[i] = means[i]
		lower[i] = means[i] - z*sds[i]
		upper[i] = means[i] + z*sds[i]
	}
	slices.Sort(mean)
	slices.Sort(lower)
	slices.Sort(upper)
	return Envelope{Mean: FromSorted(mean), Lower: FromSorted(lower), Upper: FromSorted(upper)}
}

// FuzzDiscrepancyBound feeds envelopes derived from raw bytes into
// Algorithm 3 and asserts its invariants: the bound is a probability
// difference (within [0, 1]), scratch reuse changes nothing, it returns the
// two-stream reference's bits at every size, and on small inputs it matches
// the O(m²) naive reference. A negative z (sign bit set) keeps NaN and ±∞
// pairs: an envelope with a NaN support point must get exactly 1.
func FuzzDiscrepancyBound(f *testing.F) {
	seed := make([]byte, 0, 64)
	for _, v := range []float64{0, 1, 0.5, 0.2, -1, 0.7, 2, 0} {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(v))
	}
	f.Add(seed, 2.0, 0.1)
	f.Add(seed[:16], 0.0, 0.0)
	f.Add([]byte("0123456789abcdef0123456789abcdef"), 1.5, 0.5)
	f.Fuzz(func(t *testing.T, data []byte, z, lambda float64) {
		raw := math.Signbit(z)
		means, sds := decodePairs(data, 128, raw)
		if len(means) == 0 {
			t.Skip("no decodable pairs")
		}
		z = sanitizePos(z, 100, 2)
		lambda = sanitizePos(lambda, 100, 0.1)
		env := envelopeFromPairs(means, sds, z)

		var s BoundScratch
		b := env.DiscrepancyBoundWith(&s, lambda)
		if b < 0 {
			t.Fatalf("negative bound %g", b)
		}
		if b > 1+1e-9 {
			t.Fatalf("bound %g exceeds 1", b)
		}
		if b2 := env.DiscrepancyBound(lambda); math.Abs(b-b2) > 1e-12 {
			t.Fatalf("scratch changes the bound: %g vs %g", b, b2)
		}
		// Scratch reuse across calls must be stateless.
		if b3 := env.DiscrepancyBoundWith(&s, lambda); b3 != b {
			t.Fatalf("scratch reuse changes the bound: %g vs %g", b, b3)
		}
		if slices.ContainsFunc(env.Mean.xs, math.IsNaN) || slices.ContainsFunc(env.Lower.xs, math.IsNaN) ||
			slices.ContainsFunc(env.Upper.xs, math.IsNaN) {
			if b != 1 {
				t.Fatalf("NaN support: bound %g, want 1", b)
			}
			return
		}
		if ref := env.discrepancyBoundTwoStream(&twoStreamScratch{}, lambda); math.Float64bits(b) != math.Float64bits(ref) {
			t.Fatalf("bound %v ≠ two-stream %v (m=%d, z=%g, λ=%g)", b, ref, len(means), z, lambda)
		}
		if len(means) <= 32 && !raw {
			naive := env.discrepancyBoundNaive(lambda)
			if math.Abs(b-naive) > 1e-9 {
				t.Fatalf("bound %g ≠ naive %g (m=%d, z=%g, λ=%g)", b, naive, len(means), z, lambda)
			}
		}
	})
}
