package sim

import "sync"

// alfg is math/rand's additive lagged-Fibonacci source, bit for bit: the
// same register, the same seeding and therefore the same stream as
// rand.NewSource(seed). It differs only in when the work is done.
//
// The stdlib source fills its 607-word register at seed time by running
// 1,841 serial steps of the Lehmer LCG x ← 48271·x mod (2³¹−1). Register
// word i is x₍₂₁₊₃ᵢ₎<<40 ^ x₍₂₂₊₃ᵢ₎<<20 ^ x₍₂₃₊₃ᵢ₎ ^ alfgCooked[i], and
// x_k = 48271ᵏ·x₀ mod (2³¹−1), so with the powers tabulated once (lcgPow)
// any word costs three modular products instead of a walk down the chain.
//
// Draw n reads the words at feed = 333−n and tap = 606−n (mod 607) and
// writes their sum back to feed. For n < alfgTap neither word has been
// written yet, so a fresh stream keeps no register at all: it holds only
// x₀ and its draw count, and answers each early draw from the closed form.
// The register is built on the first draw past alfgLazy, with the earlier
// draws' write-backs replayed, and from then on the source runs exactly
// like the stdlib one. Once its run is over, release hands the register to
// the next stream that builds one.
type alfg struct {
	vec  *[alfgLen]int64 // feedback register; nil while the stream is lazy
	seed uint32          // x₀, the LCG state the register derives from
	pos  int32           // draws taken, mod alfgLen
}

const (
	alfgLen  = 607 // register length (the long lag)
	alfgTap  = 273 // short lag
	alfgMask = 1<<63 - 1

	lcgMod = 1<<31 - 1
	lcgMul = 48271

	// alfgLazy is how many draws a stream answers from the closed form
	// before it builds its register; it may not exceed alfgTap. An
	// exponential variate takes ~21 ns from the closed form and ~10 ns
	// from the register (BenchmarkKernelRNGDraw, 2-vCPU x86-64 VM), so a
	// stream that will draw thousands of times should build early, and
	// one that draws a few dozen times should never build. Measured at
	// seed 1, draws per client stream over a whole run: flows-50k median
	// 8, max 29; burst-20k median 13, max 25; paper-sweep ~2,050 at
	// N = 20 and 60. 64 keeps both large workloads lazy with twice their
	// largest stream in hand, and costs a paper-sweep client under 1 µs
	// before it materializes.
	alfgLazy = 64

	// alfgReleased is pos after release. It lies past every position a
	// live stream reaches, so the next draw skips the closed form and
	// reaches materialize, which refuses it.
	alfgReleased = alfgLen
)

// alfgRegisters recycles registers from streams whose runs have ended, so
// a run that builds dozens of them leaves no 4.9 KB register per stream
// behind as garbage. A recycled register still holds its old stream's
// words, which is harmless: materialize overwrites all 607 of them before
// any is read, so a pooled register is as good as a new one, and the pool
// may drop any of them.
var alfgRegisters = sync.Pool{New: func() any { return new([alfgLen]int64) }}

// lcgPow[k] is 48271ᵏ mod (2³¹−1), for every k the seeding chain reaches.
var lcgPow = func() (p [21 + 3*alfgLen]uint32) {
	p[0] = 1
	for k := 1; k < len(p); k++ {
		p[k] = mulMod(p[k-1], lcgMul)
	}
	return p
}()

// Seed resets the source to the state rand.NewSource(seed) starts in.
func (s *alfg) Seed(seed int64) {
	seed %= lcgMod
	if seed < 0 {
		seed += lcgMod
	}
	if seed == 0 {
		seed = 89482311
	}
	s.seed = uint32(seed)
	s.pos = 0
	s.vec = nil
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *alfg) Int63() int64 { return int64(s.Uint64() & alfgMask) }

// Uint64 returns a pseudo-random 64-bit integer.
func (s *alfg) Uint64() uint64 {
	n := s.pos
	if s.pos++; s.pos == alfgLen {
		s.pos = 0
	}
	tap := alfgLen - 1 - n
	feed := tap - alfgTap
	if feed < 0 {
		feed += alfgLen
	}
	if s.vec == nil {
		if n < alfgLazy {
			return uint64(s.initial(feed) + s.initial(tap))
		}
		s.materialize(n)
	}
	x := s.vec[feed] + s.vec[tap]
	s.vec[feed] = x
	return uint64(x)
}

// initial returns register word i as seeding leaves it.
func (s *alfg) initial(i int32) int64 {
	k := 21 + 3*i
	return s.lcg(k)<<40 ^ s.lcg(k+1)<<20 ^ s.lcg(k+2) ^ alfgCooked[i]
}

// lcg returns x_k, the seeding chain's k-th state.
func (s *alfg) lcg(k int32) int64 { return int64(mulMod(lcgPow[k], s.seed)) }

// mulMod returns a·b mod (2³¹−1) for a, b in [1, 2³¹−2]. Since 2³¹ ≡ 1,
// folding the high bits of the product onto the low ones reduces it; the
// result is never 0 or 2³¹−1, as the modulus is prime.
func mulMod(a, b uint32) uint32 {
	p := uint64(a) * uint64(b)
	r := p&lcgMod + p>>31
	if r >= lcgMod {
		r -= lcgMod
	}
	return uint32(r)
}

// materialize builds the register and replays the write-backs of the n
// draws the closed form already answered. Every draw of a released stream
// lands here (see alfgReleased), so this cold path is where a draw after
// release panics.
func (s *alfg) materialize(n int32) {
	if n >= alfgReleased {
		panic("sim: RNG drawn after Release")
	}
	vec := alfgRegisters.Get().(*[alfgLen]int64)
	for i := range vec {
		vec[i] = s.initial(int32(i))
	}
	for j := int32(0); j < n; j++ {
		vec[alfgLen-1-alfgTap-j] += vec[alfgLen-1-j]
	}
	s.vec = vec
}

// release returns the register, if the stream built one, to alfgRegisters
// and leaves the stream unusable until it is seeded again.
func (s *alfg) release() {
	if s.vec != nil {
		alfgRegisters.Put(s.vec)
		s.vec = nil
	}
	s.pos = alfgReleased
}
