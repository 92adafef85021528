package analytics

import (
	"math"
	"time"
)

// TTC is a time-to-completion estimate with uncertainty, the quantity the
// Scheduler use case's Plan phase consumes: "a few simple measurable
// quantities can be used to forecast time to completion which will be used,
// in conjunction with the remaining allocation time, to plan what action,
// if any, to take."
type TTC struct {
	// Remaining is the expected time until the work completes.
	Remaining time.Duration
	// Lo/Hi bound Remaining at the requested confidence.
	Lo, Hi time.Duration
	// Rate is the estimated progress rate (units of work per second).
	Rate float64
	// N is the number of progress observations used.
	N int
}

// OK reports whether the estimate is actionable.
func (t TTC) OK() bool { return t.N >= 2 && t.Rate > 0 }

// TTCEstimator turns progress-marker observations (work done vs time) into
// time-to-completion estimates by fitting the recent progress rate.
type TTCEstimator struct {
	ols       *WindowOLS
	total     float64
	lastT     float64
	lastV     float64
	haveTotal bool
}

// NewTTCEstimator builds an estimator over a sliding window of the given
// number of progress markers (e.g. 30).
func NewTTCEstimator(window int) *TTCEstimator {
	return &TTCEstimator{ols: NewWindowOLS(window)}
}

// SetTotal declares the total work (e.g. the input deck's iteration count).
func (e *TTCEstimator) SetTotal(total float64) {
	e.total = total
	e.haveTotal = true
}

// Observe feeds one progress marker: at time t (seconds), done units of work
// were complete.
func (e *TTCEstimator) Observe(t, done float64) {
	e.ols.Observe(t, done)
	e.lastT, e.lastV = t, done
}

// Estimate returns the time-to-completion estimate at z standard deviations
// of rate uncertainty (1.96 for ~95%). It degrades gracefully: without a
// total or rate it returns a non-OK estimate.
func (e *TTCEstimator) Estimate(z float64) TTC {
	_, slope, resStd, sxx, ok := e.ols.fit()
	n := e.ols.Len()
	if !ok || !e.haveTotal || slope <= 0 {
		return TTC{N: n}
	}
	left := e.total - e.lastV
	if left <= 0 {
		return TTC{N: n, Rate: slope} // already done
	}
	mean := left / slope

	// Rate uncertainty: propagate the OLS slope's standard error into the
	// remaining-time estimate. SE(slope) = resStd / sqrt(Sxx); the fit
	// already carries the centered time spread, so no pass over the window.
	rateSE := 0.0
	if sxx > 0 {
		rateSE = resStd / math.Sqrt(sxx)
	}
	loRate := slope - z*rateSE
	hiRate := slope + z*rateSE
	lo := left / hiRate
	hi := mean * 3 // cap when the slow-rate bound collapses
	if loRate > 0 {
		hi = left / loRate
	}
	return TTC{
		Remaining: secDur(mean),
		Lo:        secDur(lo),
		Hi:        secDur(hi),
		Rate:      slope,
		N:         n,
	}
}

func secDur(s float64) time.Duration {
	if math.IsInf(s, 1) || s > 1e12 {
		return time.Duration(math.MaxInt64 / 4)
	}
	if s < 0 {
		s = 0
	}
	return time.Duration(s * float64(time.Second))
}
