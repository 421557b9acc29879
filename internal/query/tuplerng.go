package query

import "math/rand"

// tupleSource is math/rand's default generator — the additive lagged
// Fibonacci source rand.NewSource returns — reimplemented so that one
// instance can be reseeded per tuple without allocating and with a faster
// Seed. For every seed its Int63/Uint64 stream equals rand.NewSource(seed)'s
// bit for bit, so a *rand.Rand over a tupleSource reseeded with
// TupleSeed(base, ordinal) serves exactly the values a fresh
// rand.New(rand.NewSource(TupleSeed(base, ordinal))) would.
//
// math/rand seeds its 607-word register from the Park–Miller stream
// x ← 48271·x mod (2³¹−1), 1841 serial Schrage steps per seed. Seed here
// computes the same stream as six interleaved chains, each advanced by the
// precomputed 48271⁶ with a Mersenne-reduced 64-bit multiply, so the
// steps overlap instead of waiting on each other's divisions.
//
// A tupleSource is not safe for concurrent use; give each goroutine its
// own (NewTupleRand).
type tupleSource struct {
	tap  int
	feed int
	vec  [rngLen]int64
}

var _ rand.Source64 = (*tupleSource)(nil)

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1 // the Park–Miller modulus, a Mersenne prime

	// parkMiller is the seeding stream's multiplier.
	parkMiller = 48271
	// seedSkip is the number of stream values math/rand discards before
	// the first register word.
	seedSkip = 20
	// seedLanes is the number of interleaved Park–Miller chains: two
	// register words of three stream values each per step.
	seedLanes = 6
)

var (
	// seedPow[g] is 48271^(seedSkip+1+g) mod (2³¹−1): the multiplier
	// taking the normalized seed to chain g's first value.
	seedPow = func() (p [seedLanes]uint64) {
		for g := range p {
			p[g] = powMod31(seedSkip + 1 + g)
		}
		return p
	}()
	// seedStep advances every chain by seedLanes stream values.
	seedStep = powMod31(seedLanes)
	// rngCooked is math/rand's table of register offsets, recovered from
	// rand.NewSource(1)'s output instead of being copied in.
	rngCooked = recoverCooked()
)

// NewTupleRand returns a *rand.Rand over a fresh tupleSource. Call its
// Seed before each tuple; reseeding resets the stream exactly as a new
// rand.New(rand.NewSource(seed)) would start it.
func NewTupleRand() *rand.Rand { return rand.New(new(tupleSource)) }

// mulMod31 returns a·b mod (2³¹−1) for a, b < 2³¹ by folding the 62-bit
// product at bit 31 twice: 2³¹ ≡ 1 (mod 2³¹−1).
func mulMod31(a, b uint64) uint64 {
	y := a * b
	y = y&int32max + y>>31 // < 2³²
	y = y&int32max + y>>31 // ≤ 2³¹
	if y >= int32max {
		y -= int32max
	}
	return y
}

// powMod31 returns 48271^k mod (2³¹−1).
func powMod31(k int) uint64 {
	x := uint64(1)
	for ; k > 0; k-- {
		x = mulMod31(x, parkMiller)
	}
	return x
}

// Seed initializes the source to the state rand.NewSource(seed) starts in.
func (s *tupleSource) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap
	fillRegister(&s.vec, seed, &rngCooked)
}

// fillRegister writes math/rand's seeded register for seed into vec:
// word i is x₃ᵢ₊₂₁<<40 ^ x₃ᵢ₊₂₂<<20 ^ x₃ᵢ₊₂₃ ^ cooked[i], where xₖ is the
// k-th Park–Miller value after the normalized seed.
func fillRegister(vec *[rngLen]int64, seed int64, cooked *[rngLen]int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	x := uint64(seed)
	c0, c1, c2 := mulMod31(x, seedPow[0]), mulMod31(x, seedPow[1]), mulMod31(x, seedPow[2])
	c3, c4, c5 := mulMod31(x, seedPow[3]), mulMod31(x, seedPow[4]), mulMod31(x, seedPow[5])
	step := seedStep
	i := 0
	for ; i+1 < rngLen; i += 2 {
		vec[i] = int64(c0<<40^c1<<20^c2) ^ cooked[i]
		vec[i+1] = int64(c3<<40^c4<<20^c5) ^ cooked[i+1]
		c0, c1, c2 = mulMod31(c0, step), mulMod31(c1, step), mulMod31(c2, step)
		c3, c4, c5 = mulMod31(c3, step), mulMod31(c4, step), mulMod31(c5, step)
	}
	vec[i] = int64(c0<<40^c1<<20^c2) ^ cooked[i] // rngLen is odd
}

// recoverCooked inverts the first rngLen outputs of rand.NewSource(1) back
// to its seeded register and strips the seed's Park–Miller words, leaving
// the cooked table. Output k adds the words at feed = 333−k and
// tap = 606−k (mod 607) and stores the sum at feed. No feed word is
// overwritten before its own output, and from output 273 on the tap word
// is output k−273; before that it is a word the later outputs recover.
func recoverCooked() (cooked [rngLen]int64) {
	src := rand.NewSource(1).(rand.Source64)
	var out, reg [rngLen]uint64
	for k := range out {
		out[k] = src.Uint64()
	}
	const feed0 = rngLen - rngTap - 1 // 333: the first output's feed index
	for k := rngTap; k < rngLen; k++ {
		reg[(feed0-k+rngLen)%rngLen] = out[k] - out[k-rngTap]
	}
	for k := 0; k < rngTap; k++ {
		reg[feed0-k] = out[k] - reg[rngLen-1-k]
	}
	var plain, zero [rngLen]int64
	fillRegister(&plain, 1, &zero)
	for i := range cooked {
		cooked[i] = int64(reg[i]) ^ plain[i]
	}
	return cooked
}

// Int63 returns a non-negative pseudo-random 63-bit integer as an int64.
func (s *tupleSource) Int63() int64 { return int64(s.Uint64() & rngMask) }

// Uint64 returns a pseudo-random 64-bit value as a uint64.
func (s *tupleSource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}
