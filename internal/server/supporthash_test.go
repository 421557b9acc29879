package server

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// refSupportHash is supportHash written with hash/fnv and fmt.
func refSupportHash(vals []float64) string {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range vals {
		bits := math.Float64bits(v)
		for i := 0; i < 8; i++ {
			b[i] = byte(bits >> (8 * i))
		}
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestSupportHashMatchesFNV pins the inline FNV-1a digest to hash/fnv +
// fmt on random supports mixing ordinary values with NaN payloads, ±0 and
// ±Inf, and on the empty support.
func TestSupportHashMatchesFNV(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	special := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7ff0000000000001), // signalling NaN payload
		math.Float64frombits(0xfff8dead00beef00), // negative quiet NaN payload
		math.SmallestNonzeroFloat64, math.MaxFloat64,
	}
	for trial := 0; trial < 2000; trial++ {
		vals := make([]float64, rng.Intn(40))
		for i := range vals {
			switch rng.Intn(4) {
			case 0:
				vals[i] = special[rng.Intn(len(special))]
			case 1:
				vals[i] = math.Float64frombits(rng.Uint64())
			default:
				vals[i] = rng.NormFloat64()
			}
		}
		if got, want := supportHash(vals), refSupportHash(vals); got != want {
			t.Fatalf("supportHash(%v) = %s, want %s", vals, got, want)
		}
	}
	// Digests with leading zero nibbles must keep their padding: search
	// single-value supports until a few such digests turn up.
	padded := 0
	for i := uint64(0); padded < 3 && i < 1<<20; i++ {
		vals := []float64{math.Float64frombits(i)}
		want := refSupportHash(vals)
		if want[0] != '0' {
			continue
		}
		padded++
		if got := supportHash(vals); got != want {
			t.Fatalf("supportHash(bits %#x) = %s, want %s", i, got, want)
		}
	}
	if padded < 3 {
		t.Fatal("found no digest with a leading zero nibble")
	}
}

// supportHash is supportSum as the wire's support_hash.
func supportHash(vals []float64) string { return hashHex(supportSum(vals)) }
