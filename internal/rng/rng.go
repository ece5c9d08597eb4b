// Package rng provides deterministic random number generation for the
// Wi-Fi Backscatter simulator.
//
// Every stochastic component of the simulation (fading, measurement noise,
// MAC backoff, traffic arrival processes) draws from a Stream. Streams are
// split from a parent seed with a name, so each subsystem gets an
// independent, reproducible sequence and experiments are repeatable bit for
// bit given the same top-level seed.
package rng

import (
	"hash/fnv"
	"math"
	"math/rand"
)

// Stream is a deterministic source of random variates.
//
// A Stream is not safe for concurrent use; split one stream per goroutine.
type Stream struct {
	r *rand.Rand
}

// New creates a Stream from a seed.
func New(seed int64) *Stream {
	return &Stream{r: rand.New(rand.NewSource(seed))}
}

// TrialSeed derives the seed of trial i in a sweep seeded with base. The
// mapping is a fixed bijective mix (splitmix64 finalizer) of base+i, so
// neighbouring trials get decorrelated sequences while the (base, i) pair
// always yields the same seed — the property the parallel trial engine
// relies on to make concurrent sweeps bit-identical to serial ones.
func TrialSeed(base int64, trial int) int64 {
	z := uint64(base) + uint64(trial)*0x9E3779B97F4A7C15
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return int64(z ^ z>>31)
}

// TrialStream returns the deterministic stream of trial i under base:
// New(TrialSeed(base, i)). Each trial must use its own stream; streams
// are not safe for concurrent use.
func TrialStream(base int64, trial int) *Stream {
	return New(TrialSeed(base, trial))
}

// Split derives an independent child stream identified by name. The same
// (parent seed, name) pair always yields the same child sequence, and
// distinct names yield decorrelated sequences.
func (s *Stream) Split(name string) *Stream {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	// Mix the parent's next value with the name hash so sibling splits
	// from the same parent differ even with equal names at other levels.
	return New(int64(h.Sum64()) ^ s.r.Int63())
}

// Float64 returns a uniform variate in [0, 1).
func (s *Stream) Float64() float64 { return s.r.Float64() }

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (s *Stream) Intn(n int) int { return s.r.Intn(n) }

// Int63 returns a uniform non-negative 63-bit integer.
func (s *Stream) Int63() int64 { return s.r.Int63() }

// Bool returns an unbiased random boolean.
func (s *Stream) Bool() bool { return s.r.Int63()&1 == 1 }

// Gaussian returns a normal variate with the given mean and standard
// deviation.
func (s *Stream) Gaussian(mean, stddev float64) float64 {
	return mean + stddev*s.r.NormFloat64()
}

// ComplexGaussian returns a circularly-symmetric complex Gaussian variate
// with total variance sigma2 (i.e. E[|x|²] = sigma2).
func (s *Stream) ComplexGaussian(sigma2 float64) complex128 {
	return s.ComplexGaussianSD(math.Sqrt(sigma2 / 2))
}

// ComplexGaussianSD is ComplexGaussian with the per-axis standard
// deviation sd = sqrt(sigma2/2) given instead of the total variance, for
// callers that draw repeatedly with the same variance.
func (s *Stream) ComplexGaussianSD(sd float64) complex128 {
	return complex(s.Gaussian(0, sd), s.Gaussian(0, sd))
}

// Rayleigh returns a Rayleigh variate with scale sigma
// (mode sigma, mean sigma*sqrt(pi/2)).
func (s *Stream) Rayleigh(sigma float64) float64 {
	u := s.r.Float64()
	for u == 0 {
		u = s.r.Float64()
	}
	return sigma * math.Sqrt(-2*math.Log(u))
}

// Rician returns a Rician variate with line-of-sight amplitude nu and
// scatter scale sigma. With nu=0 it reduces to Rayleigh(sigma).
func (s *Stream) Rician(nu, sigma float64) float64 {
	x := s.Gaussian(nu, sigma)
	y := s.Gaussian(0, sigma)
	return math.Hypot(x, y)
}

// Exponential returns an exponential variate with the given mean.
func (s *Stream) Exponential(mean float64) float64 {
	return s.r.ExpFloat64() * mean
}

// Poisson returns a Poisson variate with the given mean using Knuth's
// algorithm for small means and a normal approximation for large ones.
func (s *Stream) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 500 {
		// Normal approximation; adequate for traffic-volume draws.
		v := s.Gaussian(mean, math.Sqrt(mean))
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= s.r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Pareto returns a bounded Pareto variate with shape alpha and minimum xm.
// Used for heavy-tailed (bursty) traffic inter-arrival and burst sizes.
func (s *Stream) Pareto(xm, alpha float64) float64 {
	u := s.r.Float64()
	for u == 0 {
		u = s.r.Float64()
	}
	return xm / math.Pow(u, 1/alpha)
}

// Perm returns a random permutation of [0, n).
func (s *Stream) Perm(n int) []int { return s.r.Perm(n) }

// Shuffle pseudo-randomizes the order of n elements using swap.
func (s *Stream) Shuffle(n int, swap func(i, j int)) { s.r.Shuffle(n, swap) }
