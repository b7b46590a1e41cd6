package sim

import (
	"math"
	"math/rand"
)

// RNG is a deterministic source of the random variates the simulator needs.
// All randomness in a simulation must flow through RNGs derived from a single
// seed so that identical configurations replay identically.
//
// Its stream is exactly rand.New(rand.NewSource(seed))'s, which Go 1 keeps
// stable; only the source underneath is seeded lazily (see alfg), so a
// fresh generator costs 72 bytes rather than a 5.4 KB table.
type RNG struct {
	r   *rand.Rand
	src alfg
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed int64) *RNG {
	g := &RNG{}
	g.src.Seed(seed)
	g.r = rand.New(&g.src)
	return g
}

// Fork derives an independent child generator. Children are keyed by an
// arbitrary stream identifier so that, e.g., each traffic source draws from
// its own stream and adding a source does not perturb the others.
func (g *RNG) Fork(stream int64) *RNG {
	// SplitMix64-style avalanche of the child seed keeps sibling streams
	// decorrelated even for adjacent stream ids.
	z := uint64(g.r.Int63()) + uint64(stream)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return NewRNG(int64(z & math.MaxInt64))
}

// Float64 returns a uniform variate in [0,1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform integer in [0,n). n must be positive.
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Uniform returns a uniform variate in [lo,hi).
func (g *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*g.r.Float64()
}

// Exp returns an exponential variate with the given mean. The mean must be
// positive; a non-positive mean returns 0.
func (g *RNG) Exp(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	return g.r.ExpFloat64() * mean
}

// ExpDuration returns an exponentially distributed duration with the given
// mean, floored at 1ns so event times strictly advance.
func (g *RNG) ExpDuration(mean Duration) Duration {
	d := Duration(g.Exp(float64(mean)))
	if d < 1 {
		d = 1
	}
	return d
}

// Pareto returns a Pareto variate with shape alpha and scale xm (the
// minimum value). Heavy-tailed for alpha <= 2; infinite variance makes it
// the canonical self-similar traffic ingredient.
func (g *RNG) Pareto(alpha, xm float64) float64 {
	if alpha <= 0 || xm <= 0 {
		return 0
	}
	u := g.r.Float64()
	for u == 0 {
		u = g.r.Float64()
	}
	return xm / math.Pow(u, 1/alpha)
}

// Normal returns a Gaussian variate with the given mean and standard
// deviation.
func (g *RNG) Normal(mean, stddev float64) float64 {
	return mean + stddev*g.r.NormFloat64()
}

// Perm returns a random permutation of [0,n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }
