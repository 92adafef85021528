package analytics

import "math"

// ConfidenceTracker turns a model's realized forecast errors into a [0,1]
// confidence score, implementing §IV's requirement that "our analyses will
// also be expanded to include determination of confidence in the models for
// decision-making". Loops gate irreversible actions on this score.
//
// The score is derived from the exponentially weighted mean absolute
// percentage error (MAPE) of resolved predictions: confidence = 1/(1+MAPE/S),
// where S is the error scale at which confidence halves.
type ConfidenceTracker struct {
	// HalfErr is the relative error at which confidence drops to 0.5
	// (default 0.25, i.e. 25% MAPE).
	HalfErr float64
	// Alpha is the EW weight of the newest resolved error (default 0.2).
	Alpha float64

	mape float64
	n    int
}

// NewConfidenceTracker returns a tracker with the given half-error scale and
// smoothing; zero values select the defaults.
func NewConfidenceTracker(halfErr, alpha float64) *ConfidenceTracker {
	if halfErr <= 0 {
		halfErr = 0.25
	}
	if alpha <= 0 || alpha > 1 {
		alpha = 0.2
	}
	return &ConfidenceTracker{HalfErr: halfErr, Alpha: alpha}
}

// Resolve records a completed prediction against its realized value.
func (c *ConfidenceTracker) Resolve(predicted, actual float64) {
	denom := math.Abs(actual)
	if denom < 1e-12 {
		denom = 1e-12
	}
	err := math.Abs(predicted-actual) / denom
	if c.n == 0 {
		c.mape = err
	} else {
		c.mape = (1-c.Alpha)*c.mape + c.Alpha*err
	}
	c.n++
}

// Confidence returns the current confidence in [0,1]. With no resolved
// predictions it returns 0.5 — the neutral prior under which conservative
// loops stay in advisory mode.
func (c *ConfidenceTracker) Confidence() float64 {
	if c.n == 0 {
		return 0.5
	}
	return 1 / (1 + c.mape/c.HalfErr)
}
