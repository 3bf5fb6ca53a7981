// Package xrand provides small, fast, deterministic pseudo-random number
// generators used by every experiment in this repository.
//
// The experiments in the paper are Monte-Carlo simulations; to make every
// figure reproducible from a single seed, all randomness flows through this
// package rather than math/rand. Two generators are provided:
//
//   - SplitMix64: a tiny 64-bit generator used for seeding and stream
//     splitting. Its output function is a strong bit mixer, so consecutive
//     seeds yield statistically independent streams.
//   - Rand (xoshiro256**): the workhorse generator for the simulators.
//
// Both are from the public-domain reference constructions by Blackman and
// Vigna and are implemented here from the published algorithms.
package xrand

import "math"

// SplitMix64 is a 64-bit generator with a single uint64 of state. It is
// primarily used to seed Rand streams: calling Next repeatedly produces a
// sequence of well-mixed seeds.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a SplitMix64 seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Next advances the generator and returns the next 64-bit value.
func (s *SplitMix64) Next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix64 applies the SplitMix64 finalizer to x. It is a stateless strong
// mixer, useful for hashing small integers (e.g., deriving per-thread seeds
// from a base seed and a thread index).
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Rand is a xoshiro256** generator. It is not safe for concurrent use; give
// each goroutine its own stream via Split or NewWithStream.
type Rand struct {
	s0, s1, s2, s3 uint64
}

// New returns a Rand seeded from seed via SplitMix64, per the reference
// seeding procedure.
func New(seed uint64) *Rand {
	sm := NewSplitMix64(seed)
	r := &Rand{s0: sm.Next(), s1: sm.Next(), s2: sm.Next(), s3: sm.Next()}
	// A state of all zeros is the one invalid state; the SplitMix64 seeding
	// makes this astronomically unlikely, but guard anyway.
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		r.s3 = 0x9e3779b97f4a7c15
	}
	return r
}

// NewWithStream returns a Rand whose stream is derived from (seed, stream).
// Distinct stream values yield independent generators for the same seed.
func NewWithStream(seed, stream uint64) *Rand {
	return New(Mix64(seed) ^ Mix64(stream+0x6a09e667f3bcc909))
}

// Split derives a new independent generator from r, advancing r. It is the
// preferred way to hand child simulations their own randomness.
func (r *Rand) Split() *Rand {
	return New(r.Uint64() ^ 0x2545f4914f6cdd1d)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s1*5, 7) * 9
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = rotl(r.s3, 45)
	return result
}

// Uint32 returns 32 random bits.
func (r *Rand) Uint32() uint32 { return uint32(r.Uint64() >> 32) }

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn called with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform integer in [0, n) using Lemire's multiply-shift
// rejection method (unbiased). It panics if n == 0.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n called with n == 0")
	}
	// Fast path for powers of two: mask.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	// Lemire rejection sampling on the high 64 bits of the 128-bit product.
	for {
		v := r.Uint64()
		hi, lo := mul128(v, n)
		if lo >= n || lo >= (-n)%n {
			return hi
		}
	}
}

// mul128 returns the 128-bit product of a and b as (hi, lo).
func mul128(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	a0, a1 := a&mask32, a>>32
	b0, b1 := b&mask32, b>>32
	t := a1*b0 + (a0*b0)>>32
	w1 := t&mask32 + a0*b1
	hi = a1*b1 + t>>32 + w1>>32
	lo = a * b
	return hi, lo
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns a uniformly random boolean.
func (r *Rand) Bool() bool { return r.Uint64()&1 == 1 }

// Perm returns a uniformly random permutation of [0, n) (Fisher-Yates).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Geometric returns a sample from a geometric distribution with success
// probability p: the number of failures before the first success (support
// {0, 1, 2, ...}, mean (1-p)/p). It panics unless 0 < p <= 1.
func (r *Rand) Geometric(p float64) int {
	if p <= 0 || p > 1 {
		panic("xrand: Geometric called with p outside (0, 1]")
	}
	if p == 1 {
		return 0
	}
	u := r.Float64()
	// Inverse CDF: floor(ln(1-u) / ln(1-p)).
	return int(math.Floor(math.Log1p(-u) / math.Log1p(-p)))
}
