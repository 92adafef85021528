package analytics

import (
	"math"
	"sort"
)

// This file retains the naive detector implementations verbatim: every Step
// reslices and rescans — and for MAD re-sorts — its window. They are the
// ground truth for the equivalence property tests and
// FuzzDetectorsMatchReference; the shipping detectors must match their
// decisions (and WindowOLS its fits, bit for bit) on any input stream.

func meanOf(vals []float64) float64 {
	s := 0.0
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}

func stddevOf(vals []float64, mean float64) float64 {
	if len(vals) < 2 {
		return 0
	}
	s := 0.0
	for _, v := range vals {
		d := v - mean
		s += d * d
	}
	return math.Sqrt(s / float64(len(vals)-1))
}

func quantileSorted(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// naiveZScore is the reference rescan z-score detector.
type naiveZScore struct {
	Window    int
	Threshold float64
	MinN      int

	vals []float64
}

func (z *naiveZScore) Step(v float64) bool {
	defer func() {
		z.vals = append(z.vals, v)
		if len(z.vals) > z.Window {
			z.vals = z.vals[1:]
		}
	}()
	if len(z.vals) < z.MinN {
		return false
	}
	m := meanOf(z.vals)
	s := stddevOf(z.vals, m)
	if s == 0 {
		return v != m
	}
	return math.Abs(v-m)/s > z.Threshold
}

// naiveMAD is the reference sort-per-step MAD detector.
type naiveMAD struct {
	Window    int
	Threshold float64
	MinN      int

	vals []float64
}

func (m *naiveMAD) Step(v float64) bool {
	defer func() {
		m.vals = append(m.vals, v)
		if len(m.vals) > m.Window {
			m.vals = m.vals[1:]
		}
	}()
	if len(m.vals) < m.MinN {
		return false
	}
	med, mad := naiveMedianMAD(m.vals)
	if mad == 0 {
		return v != med
	}
	return math.Abs(v-med)/(1.4826*mad) > m.Threshold
}

// naiveMedianMAD is the sort-based median/MAD the quickselect form replaced.
func naiveMedianMAD(vals []float64) (median, mad float64) {
	sorted := make([]float64, len(vals))
	copy(sorted, vals)
	sort.Float64s(sorted)
	median = quantileSorted(sorted, 0.5)
	devs := make([]float64, len(vals))
	for i, v := range vals {
		devs[i] = math.Abs(v - median)
	}
	sort.Float64s(devs)
	mad = quantileSorted(devs, 0.5)
	return median, mad
}

// naiveMADOutliers is MADOutliers over the sort-based medianMAD.
func naiveMADOutliers(values []float64, threshold float64, direction int) []int {
	if len(values) < 3 {
		return nil
	}
	med, mad := naiveMedianMAD(values)
	if mad == 0 {
		var out []int
		for i, v := range values {
			if v != med && ((direction < 0 && v < med) || (direction > 0 && v > med) || direction == 0) {
				out = append(out, i)
			}
		}
		return out
	}
	scale := 1.4826 * mad
	var out []int
	for i, v := range values {
		dev := (v - med) / scale
		switch {
		case direction < 0 && dev < -threshold:
			out = append(out, i)
		case direction > 0 && dev > threshold:
			out = append(out, i)
		case direction == 0 && math.Abs(dev) > threshold:
			out = append(out, i)
		}
	}
	return out
}

// naiveWindowOLS is the reference reslice-and-rescan sliding OLS.
type naiveWindowOLS struct {
	Window int

	ts, vs []float64
}

func (w *naiveWindowOLS) Observe(t, v float64) {
	w.ts = append(w.ts, t)
	w.vs = append(w.vs, v)
	if len(w.ts) > w.Window {
		w.ts = w.ts[1:]
		w.vs = w.vs[1:]
	}
}

func (w *naiveWindowOLS) Fit() (intercept, slope, resStd float64, ok bool) {
	n := len(w.ts)
	if n < 2 {
		return 0, 0, 0, false
	}
	var st, sv float64
	for i := 0; i < n; i++ {
		st += w.ts[i]
		sv += w.vs[i]
	}
	mt, mv := st/float64(n), sv/float64(n)
	var stt, stv float64
	for i := 0; i < n; i++ {
		dt := w.ts[i] - mt
		stt += dt * dt
		stv += dt * (w.vs[i] - mv)
	}
	if stt == 0 {
		return 0, 0, 0, false
	}
	slope = stv / stt
	intercept = mv - slope*mt
	var sse float64
	for i := 0; i < n; i++ {
		r := w.vs[i] - (intercept + slope*w.ts[i])
		sse += r * r
	}
	dof := n - 2
	if dof < 1 {
		dof = 1
	}
	return intercept, slope, math.Sqrt(sse / float64(dof)), true
}
