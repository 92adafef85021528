package sim

import (
	"math"
	"math/rand"
	"time"
)

// Dist is a distribution over durations, used for arrival processes, service
// times, iteration times, and human response latencies throughout the
// simulated substrates.
type Dist interface {
	// Sample draws one value using rng.
	Sample(rng *rand.Rand) time.Duration
	// Mean returns the distribution mean.
	Mean() time.Duration
}

// Constant is a degenerate distribution that always returns V.
type Constant struct{ V time.Duration }

// Sample implements Dist.
func (c Constant) Sample(*rand.Rand) time.Duration { return c.V }

// Mean implements Dist.
func (c Constant) Mean() time.Duration { return c.V }

// Exponential samples an exponential distribution with the given mean,
// suitable for Poisson arrival processes.
type Exponential struct{ MeanV time.Duration }

// Sample implements Dist.
func (e Exponential) Sample(rng *rand.Rand) time.Duration {
	return time.Duration(rng.ExpFloat64() * float64(e.MeanV))
}

// Mean implements Dist.
func (e Exponential) Mean() time.Duration { return e.MeanV }

// LogNormal samples a log-normal distribution parameterized by the desired
// mean and coefficient of variation of the resulting values. Log-normal
// run-time and iteration-time variability is the standard model for HPC
// workloads and gives the heavy right tail that stresses forecasting.
type LogNormal struct {
	MeanV time.Duration
	CV    float64 // coefficient of variation (stddev/mean) of the samples
}

// Sample implements Dist.
func (l LogNormal) Sample(rng *rand.Rand) time.Duration {
	if l.CV <= 0 {
		return l.MeanV
	}
	sigma2 := math.Log(1 + l.CV*l.CV)
	mu := math.Log(float64(l.MeanV)) - sigma2/2
	v := math.Exp(rng.NormFloat64()*math.Sqrt(sigma2) + mu)
	return time.Duration(v)
}

// Mean implements Dist.
func (l LogNormal) Mean() time.Duration { return l.MeanV }
