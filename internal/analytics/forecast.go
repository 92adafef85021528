// Package analytics provides the Analyze-phase building blocks of the MODA
// autonomy loops: streaming forecasters with uncertainty, time-to-completion
// estimation, anomaly detectors, model-confidence tracking, and behavioral
// signatures for comparing application runs against history.
//
// Everything here is deliberately lightweight — the paper's §IV argues that
// "large models with millions of parameters ... may not be efficient when
// complex optimizations for real-time decisions must be made" and calls for
// efficient, interpretable models; these are closed-form streaming estimators
// with O(1) or O(window) state whose outputs carry explicit uncertainty.
//
// Each windowed estimator (ZScore, MAD, WindowOLS) has one implementation: a
// ring of the last window observations, rescanned in O(window) on every step
// or fit with no allocation, by exactly the arithmetic of the naive reference
// its property tests and FuzzDetectorsMatchReference compare against. Every
// caller in the tree uses a window of 30 to 60.
package analytics

import (
	"fmt"
	"math"
)

// Forecast is a point prediction with a symmetric uncertainty band.
type Forecast struct {
	Value float64
	// Stddev is the predictive standard deviation estimated from recent
	// one-step-ahead residuals.
	Stddev float64
	// N is the number of observations behind the forecast.
	N int
}

// OK reports whether the forecast is backed by enough data to act on.
func (f Forecast) OK() bool { return f.N >= 2 && !math.IsNaN(f.Value) }

// Forecaster consumes a time series one observation at a time and predicts
// the value horizon seconds ahead.
type Forecaster interface {
	// Observe feeds one observation at time t (seconds).
	Observe(t, v float64)
	// Predict forecasts the value at time t+horizon given the data so far.
	Predict(horizon float64) Forecast
}

// Holt is double exponential smoothing (level + trend), the workhorse for
// progress-rate series that drift. Alpha smooths the level, Beta the trend.
type Holt struct {
	Alpha, Beta float64

	level, trend float64
	lastT        float64
	n            int
	resVar       float64
}

// NewHolt returns a Holt linear-trend forecaster.
func NewHolt(alpha, beta float64) *Holt {
	if alpha <= 0 || alpha > 1 || beta <= 0 || beta > 1 {
		panic(fmt.Sprintf("analytics: Holt parameters (%v, %v) out of (0,1]", alpha, beta))
	}
	return &Holt{Alpha: alpha, Beta: beta}
}

// Observe implements Forecaster. Observations carry their own timestamps, so
// irregular sampling is handled by scaling the trend per second.
func (h *Holt) Observe(t, v float64) {
	if h.n == 0 {
		h.level, h.lastT, h.n = v, t, 1
		return
	}
	dt := t - h.lastT
	if dt <= 0 {
		dt = 1e-9
	}
	pred := h.level + h.trend*dt
	res := v - pred
	h.resVar = (1-h.Alpha)*h.resVar + h.Alpha*res*res
	newLevel := pred + h.Alpha*res
	h.trend = (1-h.Beta)*h.trend + h.Beta*(newLevel-h.level)/dt
	h.level = newLevel
	h.lastT = t
	h.n++
}

// Predict implements Forecaster.
func (h *Holt) Predict(horizon float64) Forecast {
	return Forecast{Value: h.level + h.trend*horizon, Stddev: math.Sqrt(h.resVar), N: h.n}
}

// WindowOLS fits ordinary least squares over a sliding window of the last
// Window observations, predicting by extrapolating the fitted line. It is
// the estimator the Scheduler case uses on progress markers (through
// TTCEstimator, 30 markers per job): slope = progress rate, with a
// residual-based predictive interval. Construct it with NewWindowOLS.
//
// Observations live in two fixed rings; a fit is three passes over the
// window in arrival order (means, centered moments, residuals).
type WindowOLS struct {
	Window int

	ts, vs  []float64
	head, n int
}

// NewWindowOLS returns a sliding-window OLS forecaster.
func NewWindowOLS(window int) *WindowOLS {
	if window < 2 {
		panic("analytics: OLS window must be >= 2")
	}
	return &WindowOLS{Window: window, ts: make([]float64, window), vs: make([]float64, window)}
}

// Len returns the number of observations currently in the window.
func (w *WindowOLS) Len() int { return w.n }

// Observe implements Forecaster.
func (w *WindowOLS) Observe(t, v float64) {
	w.ts[w.head], w.vs[w.head] = t, v
	w.head, w.n = advance(len(w.ts), w.head, w.n)
}

// Fit returns the current intercept, slope, and residual stddev; ok is false
// with fewer than two points or a degenerate time spread.
func (w *WindowOLS) Fit() (intercept, slope, resStd float64, ok bool) {
	intercept, slope, resStd, _, ok = w.fit()
	return intercept, slope, resStd, ok
}

// fit is Fit plus the centered time spread Sxx, the slope's standard-error
// denominator.
func (w *WindowOLS) fit() (intercept, slope, resStd, sxx float64, ok bool) {
	n := w.n
	if n < 2 {
		return 0, 0, 0, 0, false
	}
	ts, vs := arrival(w.ts, w.head, n), arrival(w.vs, w.head, n)
	var st, sv float64
	for r, run := range ts {
		for i, t := range run {
			st += t
			sv += vs[r][i]
		}
	}
	mt, mv := st/float64(n), sv/float64(n)
	var stt, stv float64
	for r, run := range ts {
		for i, t := range run {
			dt := t - mt
			stt += dt * dt
			stv += dt * (vs[r][i] - mv)
		}
	}
	if stt == 0 {
		return 0, 0, 0, 0, false
	}
	slope = stv / stt
	intercept = mv - slope*mt
	var sse float64
	for r, run := range ts {
		for i, t := range run {
			res := vs[r][i] - (intercept + slope*t)
			sse += res * res
		}
	}
	dof := n - 2
	if dof < 1 {
		dof = 1
	}
	return intercept, slope, math.Sqrt(sse / float64(dof)), stt, true
}

// Predict implements Forecaster.
func (w *WindowOLS) Predict(horizon float64) Forecast {
	n := w.n
	intercept, slope, resStd, ok := w.Fit()
	if !ok {
		return Forecast{N: n, Value: math.NaN()}
	}
	last := w.ts[(w.head+len(w.ts)-1)%len(w.ts)]
	return Forecast{Value: intercept + slope*(last+horizon), Stddev: resStd, N: n}
}
