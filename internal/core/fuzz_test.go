package core

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"
)

// decodeMoments reads (mean, var) pairs from raw fuzz bytes, sanitized to
// finite means and non-negative finite variances.
func decodeMoments(data []byte, maxPairs int) (means, vars []float64) {
	for len(data) >= 16 && len(means) < maxPairs {
		m := math.Float64frombits(binary.LittleEndian.Uint64(data[:8]))
		v := math.Float64frombits(binary.LittleEndian.Uint64(data[8:16]))
		data = data[16:]
		if math.IsNaN(m) || math.IsInf(m, 0) || math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		if math.Abs(m) > 1e9 {
			m = math.Mod(m, 1e9)
		}
		v = math.Abs(v)
		if v > 1e9 {
			v = math.Mod(v, 1e9)
		}
		means = append(means, m)
		vars = append(vars, v)
	}
	return means, vars
}

// FuzzEnvelopeOf drives the sort-free envelope construction with arbitrary
// moments and asserts the envelope invariants: every support is ascending,
// the supports are rank-wise ordered (lower ≤ mean ≤ upper), the result
// equals the sort-based reference exactly, the error bound is non-negative,
// and a perturbed second call through the same scratch (exercising the
// persistent-permutation path) upholds all of the above.
func FuzzEnvelopeOf(f *testing.F) {
	seed := make([]byte, 0, 64)
	for _, v := range []float64{1, 0.5, -2, 0.1, 3, 2, 0, 0.4} {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(v))
	}
	f.Add(seed, 2.5, 0.05)
	f.Add(seed[:32], 0.0, 0.0)
	f.Add([]byte("0123456789abcdef0123456789abcdef"), 1.0, 1.0)
	f.Fuzz(func(t *testing.T, data []byte, z, lambda float64) {
		means, vars := decodeMoments(data, 256)
		if len(means) == 0 {
			t.Skip("no decodable moments")
		}
		if math.IsNaN(z) || math.IsInf(z, 0) {
			z = 2
		}
		z = math.Abs(z)
		if z > 100 {
			z = math.Mod(z, 100)
		}
		if math.IsNaN(lambda) || math.IsInf(lambda, 0) || lambda < 0 {
			lambda = 0.1
		}
		if lambda > 100 {
			lambda = math.Mod(lambda, 100)
		}

		var s envScratch
		check := func(pass string) {
			n := len(means)
			env := s.envelopeOf(means, vars, z, n)
			ref := refEnvelopeOf(means, vars, z, n)
			for name, pair := range map[string][2][]float64{
				"mean":  {env.Mean.Values(), ref.Mean.Values()},
				"lower": {env.Lower.Values(), ref.Lower.Values()},
				"upper": {env.Upper.Values(), ref.Upper.Values()},
			} {
				got, want := pair[0], pair[1]
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s: %s support[%d] %g ≠ reference %g", pass, name, i, got[i], want[i])
					}
					if i > 0 && got[i] < got[i-1] {
						t.Fatalf("%s: %s support not ascending at %d", pass, name, i)
					}
				}
			}
			lo, mid, up := env.Lower.Values(), env.Mean.Values(), env.Upper.Values()
			for i := range mid {
				if lo[i] > mid[i] || mid[i] > up[i] {
					t.Fatalf("%s: rank %d violates lower ≤ mean ≤ upper: %g %g %g", pass, i, lo[i], mid[i], up[i])
				}
			}
			if b := env.DiscrepancyBound(lambda); b < 0 {
				t.Fatalf("%s: negative discrepancy bound %g", pass, b)
			}
		}
		check("fresh")
		// Deterministic perturbation derived from the input, re-using the
		// scratch permutations like a tuning iteration does.
		for i := range means {
			means[i] += 0.01 * math.Sin(float64(i)+z)
			vars[i] = math.Abs(vars[i] + 0.001*math.Cos(float64(i)))
		}
		check("perturbed")
	})
}

// decodeSupport reads a support from raw fuzz bytes: with raw set, each 8
// bytes are a float64's bits (any NaN payload, ±0, ±Inf, spans that
// overflow); otherwise each 2 bytes are an int16 on a 1/16 grid — a narrow,
// duplicate-heavy range the distribution pass buckets — with the top four
// codes standing for NaN, −0, +Inf and −Inf.
func decodeSupport(data []byte, raw bool, maxLen int) []float64 {
	var out []float64
	if raw {
		for ; len(data) >= 8 && len(out) < maxLen; data = data[8:] {
			out = append(out, math.Float64frombits(binary.LittleEndian.Uint64(data)))
		}
		return out
	}
	for ; len(data) >= 2 && len(out) < maxLen; data = data[2:] {
		v := int16(binary.LittleEndian.Uint16(data))
		switch v {
		case math.MaxInt16:
			out = append(out, math.NaN())
		case math.MaxInt16 - 1:
			out = append(out, math.Copysign(0, -1))
		case math.MaxInt16 - 2:
			out = append(out, math.Inf(1))
		case math.MaxInt16 - 3:
			out = append(out, math.Inf(-1))
		default:
			out = append(out, float64(v)/16)
		}
	}
	return out
}

// FuzzSortWithPerm checks sortWithPerm against the stable comparison sort
// bit for bit — values and permutation — on arbitrary supports, twice
// through one scratch: first on the support as given, then on it reversed,
// which turns a nearly sorted support (the insertion pass alone) into one
// with many descents (the distribution pass first).
func FuzzSortWithPerm(f *testing.F) {
	narrow := make([]byte, 0, 2*128)
	for i := 0; i < 128; i++ {
		narrow = binary.LittleEndian.AppendUint16(narrow, uint16((i*7919)%509))
	}
	f.Add(narrow, false)
	wide := make([]byte, 0, 8*8)
	for _, v := range []float64{3, math.NaN(), math.Copysign(0, -1), 1e300, -1e300, math.Inf(1), 0, 2} {
		wide = binary.LittleEndian.AppendUint64(wide, math.Float64bits(v))
	}
	f.Add(wide, true)
	f.Fuzz(func(t *testing.T, data []byte, raw bool) {
		vals := decodeSupport(data, raw, 4096)
		var sc sortScratch
		for _, pass := range []string{"as given", "reversed"} {
			if pass == "reversed" {
				slices.Reverse(vals)
			}
			wantV, wantP := stableReference(vals)
			got := slices.Clone(vals)
			perm := make([]int, len(got))
			for i := range perm {
				perm[i] = i
			}
			sortWithPerm(got, perm, &sc)
			for k := range got {
				if math.Float64bits(got[k]) != math.Float64bits(wantV[k]) || perm[k] != wantP[k] {
					t.Fatalf("%s: position %d holds %v (from %d), stable sort gives %v (from %d)",
						pass, k, got[k], perm[k], wantV[k], wantP[k])
				}
			}
		}
	})
}
