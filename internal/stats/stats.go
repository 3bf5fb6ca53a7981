// Package stats provides the sample statistics used to aggregate and check
// the Monte-Carlo experiments: means and confidence intervals for conflict
// likelihoods, histograms for footprints and chain lengths, and log-log
// least-squares slope fits used to verify the power laws the paper predicts
// (conflict rate ∝ W², ∝ C(C−1), ∝ 1/N).
package stats

import (
	"fmt"
	"math"
)

// Sample accumulates scalar observations with O(1) state (Welford's
// algorithm), providing mean, variance, and extremes.
type Sample struct {
	n        int
	mean     float64
	m2       float64
	min, max float64
}

// Add incorporates one observation.
func (s *Sample) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// N returns the number of observations.
func (s *Sample) N() int { return s.n }

// Mean returns the sample mean (0 for an empty sample).
func (s *Sample) Mean() float64 { return s.mean }

// Variance returns the unbiased sample variance.
func (s *Sample) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// StdDev returns the sample standard deviation.
func (s *Sample) StdDev() float64 { return math.Sqrt(s.Variance()) }

// StdErr returns the standard error of the mean.
func (s *Sample) StdErr() float64 {
	if s.n == 0 {
		return 0
	}
	return s.StdDev() / math.Sqrt(float64(s.n))
}

// Min returns the smallest observation (0 for an empty sample).
func (s *Sample) Min() float64 { return s.min }

// Max returns the largest observation (0 for an empty sample).
func (s *Sample) Max() float64 { return s.max }

// CI95 returns the half-width of the normal-approximation 95% confidence
// interval on the mean.
func (s *Sample) CI95() float64 { return 1.96 * s.StdErr() }

// String summarizes the sample.
func (s *Sample) String() string {
	return fmt.Sprintf("n=%d mean=%.4g ±%.2g sd=%.4g [%.4g, %.4g]",
		s.n, s.mean, s.CI95(), s.StdDev(), s.min, s.max)
}

// Proportion tracks a Bernoulli success rate — e.g., "did any alias occur in
// this trial" — with a Wilson score interval, which stays sane at extreme
// rates where the normal interval fails.
type Proportion struct {
	successes int
	trials    int
}

// Record adds one trial with the given outcome.
func (p *Proportion) Record(success bool) {
	p.trials++
	if success {
		p.successes++
	}
}

// Successes returns the number of successful trials.
func (p *Proportion) Successes() int { return p.successes }

// Trials returns the total number of trials.
func (p *Proportion) Trials() int { return p.trials }

// Rate returns the observed success proportion (0 with no trials).
func (p *Proportion) Rate() float64 {
	if p.trials == 0 {
		return 0
	}
	return float64(p.successes) / float64(p.trials)
}

// Wilson95 returns the Wilson score 95% interval for the true proportion.
func (p *Proportion) Wilson95() (lo, hi float64) {
	if p.trials == 0 {
		return 0, 1
	}
	const z = 1.96
	n := float64(p.trials)
	phat := p.Rate()
	denom := 1 + z*z/n
	center := (phat + z*z/(2*n)) / denom
	half := z * math.Sqrt(phat*(1-phat)/n+z*z/(4*n*n)) / denom
	lo, hi = center-half, center+half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}
