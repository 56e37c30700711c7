// Package xprng provides a small, fast, deterministic pseudo-random number
// generator used throughout the simulator.
//
// Every stochastic choice in the reproduction (workload generation, steal
// victim selection, synthetic sparsity patterns) draws from an explicitly
// seeded xprng.PRNG so that runs are bit-reproducible across machines and Go
// versions. math/rand is deliberately avoided: its global state and historic
// algorithm changes make archived experiment outputs fragile.
//
// The generator is xoshiro256**, seeded via splitmix64, following the
// reference implementations by Blackman and Vigna. It is not cryptographic.
package xprng

// PRNG is a deterministic xoshiro256** generator. The zero value is invalid;
// use New.
type PRNG struct {
	s [4]uint64
}

// splitMix64 advances a splitmix64 state and returns the next output.
// It is used for seeding so that similar seeds yield unrelated streams.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a PRNG seeded from the given seed. Distinct seeds produce
// statistically independent streams.
func New(seed uint64) *PRNG {
	p := &PRNG{}
	sm := seed
	for i := range p.s {
		p.s[i] = splitMix64(&sm)
	}
	// Guard against the (astronomically unlikely) all-zero state, which is
	// the one fixed point of xoshiro.
	if p.s[0]|p.s[1]|p.s[2]|p.s[3] == 0 {
		p.s[0] = 0x9e3779b97f4a7c15
	}
	return p
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (p *PRNG) Uint64() uint64 {
	result := rotl(p.s[1]*5, 7) * 9
	t := p.s[1] << 17
	p.s[2] ^= p.s[0]
	p.s[3] ^= p.s[1]
	p.s[1] ^= p.s[2]
	p.s[0] ^= p.s[3]
	p.s[2] ^= t
	p.s[3] = rotl(p.s[3], 45)
	return result
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (p *PRNG) Intn(n int) int {
	if n <= 0 {
		panic("xprng: Intn called with n <= 0")
	}
	return int(p.Uint64n(uint64(n)))
}

// Int63n returns a uniform int64 in [0, n). It panics if n <= 0.
func (p *PRNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("xprng: Int63n called with n <= 0")
	}
	return int64(p.Uint64n(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0, n) using Lemire's multiply-shift
// rejection method. It panics if n == 0.
func (p *PRNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xprng: Uint64n called with n == 0")
	}
	// Rejection sampling on the low half avoids 128-bit arithmetic while
	// remaining exactly uniform.
	threshold := -n % n
	for {
		v := p.Uint64()
		if v >= threshold {
			return v % n
		}
	}
}

// Float64 returns a uniform float64 in [0, 1).
func (p *PRNG) Float64() float64 {
	return float64(p.Uint64()>>11) / (1 << 53)
}

// Shuffle permutes n elements using the provided swap function.
func (p *PRNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := p.Intn(i + 1)
		swap(i, j)
	}
}
