package fuzz

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand/v2"
)

// rng is the campaign's random generator: a PCG held by value plus a
// draw counter. Its state is 20 bytes (PCG MarshalBinary), so a
// snapshot stores it verbatim and Restore resumes in constant time.
// Every method is a direct call; nothing goes through an interface.
type rng struct {
	pcg   rand.PCG
	draws uint64
}

// newRNG seeds the generator deterministically from a campaign seed.
// Both PCG words come from splitmix64 of the seed, so neighbouring
// seeds start far apart in the state space.
func newRNG(seed int64) rng {
	s := uint64(seed)
	return rng{pcg: *rand.NewPCG(splitmix64(s), splitmix64(s^0x6a09e667f3bcc909))}
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Uint64 returns the next 64 random bits; every draw counts.
func (r *rng) Uint64() uint64 {
	r.draws++
	return r.pcg.Uint64()
}

// Intn returns a uniform int in [0, n) by math/rand/v2's IntN
// algorithm on 64-bit hosts; n must be positive.
func (r *rng) Intn(n int) int { return int(r.uint64n(uint64(n))) }

// Int63n is Intn for int64 bounds (math/rand/v2's Int64N).
func (r *rng) Int63n(n int64) int64 { return int64(r.uint64n(uint64(n))) }

// uint64n reduces one draw to [0, n): a mask for powers of two, else
// Lemire's multiply-shift with rejection. The PCG step is inlined here,
// so a bounded draw costs one call; only the rare rejection loop is
// out of line.
func (r *rng) uint64n(n uint64) uint64 {
	r.draws++
	x := r.pcg.Uint64()
	if n&(n-1) == 0 {
		return x & (n - 1)
	}
	hi, lo := bits.Mul64(x, n)
	if lo < n {
		hi = r.reject(hi, lo, n)
	}
	return hi
}

// reject redraws while the low word falls in the biased zone.
//
//go:noinline
func (r *rng) reject(hi, lo, n uint64) uint64 {
	thresh := -n % n
	for lo < thresh {
		hi, lo = bits.Mul64(r.Uint64(), n)
	}
	return hi
}

// ErrRNGState reports a snapshot whose RNG state is missing or not a
// valid PCG encoding. Restore never substitutes a fresh stream.
var ErrRNGState = errors.New("fuzz: invalid snapshot RNG state")

// state returns the serialized generator position.
func (r *rng) state() []byte {
	b, _ := r.pcg.MarshalBinary() // cannot fail
	return b
}

// setState resumes the generator at a serialized position.
func (r *rng) setState(b []byte, draws uint64) error {
	var p rand.PCG
	if err := p.UnmarshalBinary(b); err != nil {
		return fmt.Errorf("%w (%d bytes): %w", ErrRNGState, len(b), err)
	}
	r.pcg, r.draws = p, draws
	return nil
}
