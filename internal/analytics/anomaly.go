package analytics

import (
	"math"
	"sync"
)

// Detector is a streaming anomaly detector over a univariate series.
//
// The windowed detectors (ZScore, MAD) rescan their window on every step,
// O(window) with no allocation, so a decision is reproducible from the
// window alone. The loop cases judge fleets cross-sectionally with
// MADOutliers and slow drifts with CUSUM; ZScore and MAD run in the bench
// harness's detector probe at window 32.
type Detector interface {
	// Step feeds one observation and reports whether it is anomalous.
	Step(v float64) bool
}

// ZScore flags observations more than Threshold standard deviations from the
// mean of a sliding window. It needs MinN observations before it fires.
// Construct it with NewZScore.
//
// Each step takes the two-pass mean and sample standard deviation of the
// window in arrival order.
type ZScore struct {
	Window    int
	Threshold float64
	MinN      int

	ring    []float64
	head, n int
}

// NewZScore returns a z-score detector (window, threshold sigma, minimum
// samples before alerting).
func NewZScore(window int, threshold float64, minN int) *ZScore {
	if window < 2 {
		panic("analytics: z-score window must be >= 2")
	}
	if minN < 2 {
		minN = 2
	}
	return &ZScore{Window: window, Threshold: threshold, MinN: minN, ring: make([]float64, window)}
}

// Step implements Detector: v is compared against the window *before* v is
// added, so a level shift fires on its first sample.
func (z *ZScore) Step(v float64) bool {
	fire := false
	if z.n >= z.MinN {
		m, s := z.stats()
		if s == 0 {
			fire = v != m
		} else {
			fire = math.Abs(v-m)/s > z.Threshold
		}
	}
	z.ring[z.head] = v
	z.head, z.n = advance(len(z.ring), z.head, z.n)
	return fire
}

// stats returns the window's mean and sample standard deviation.
func (z *ZScore) stats() (m, s float64) {
	runs := arrival(z.ring, z.head, z.n)
	sum := 0.0
	for _, run := range runs {
		for _, v := range run {
			sum += v
		}
	}
	m = sum / float64(z.n)
	if z.n < 2 {
		return m, 0
	}
	ss := 0.0
	for _, run := range runs {
		for _, v := range run {
			d := v - m
			ss += d * d
		}
	}
	return m, math.Sqrt(ss / float64(z.n-1))
}

// advance moves a ring window of capacity w past the value just written at
// head: head is the next slot to write, which once the window is full is
// also its oldest value, and n counts values up to w.
func advance(w, head, n int) (int, int) {
	if head++; head == w {
		head = 0
	}
	if n < w {
		n++
	}
	return head, n
}

// arrival returns the n values of a ring window in arrival order as two
// runs: ring[:n] until the window fills, then ring[head:] and ring[:head].
func arrival(ring []float64, head, n int) [2][]float64 {
	return [2][]float64{ring[head:n], ring[:head]}
}

// MAD flags observations whose distance from the window median exceeds
// Threshold x MAD (median absolute deviation), the robust detector used for
// fleet outliers (one slow OST among sixteen). Construct it with NewMAD.
//
// Each step quickselects the median and MAD of the window (medianMAD, the
// form MADOutliers uses).
type MAD struct {
	Window    int
	Threshold float64
	MinN      int

	ring    []float64
	head, n int
}

// NewMAD returns a MAD detector.
func NewMAD(window int, threshold float64, minN int) *MAD {
	if window < 3 {
		panic("analytics: MAD window must be >= 3")
	}
	if minN < 3 {
		minN = 3
	}
	return &MAD{Window: window, Threshold: threshold, MinN: minN, ring: make([]float64, window)}
}

// Step implements Detector (comparison precedes insertion, as in ZScore).
func (m *MAD) Step(v float64) bool {
	fire := false
	if m.n >= m.MinN {
		// Order statistics do not depend on arrival order: read the ring as is.
		med, mad := medianMAD(m.ring[:m.n])
		if mad == 0 {
			fire = v != med
		} else {
			// 1.4826 scales MAD to the stddev of a normal distribution.
			fire = math.Abs(v-med)/(1.4826*mad) > m.Threshold
		}
	}
	m.ring[m.head] = v
	m.head, m.n = advance(len(m.ring), m.head, m.n)
	return fire
}

// MADOutliers returns the indices of fleet members whose value deviates from
// the fleet median by more than threshold x scaled MAD — the cross-sectional
// form used to pick out a degraded OST from its peers. direction < 0 flags
// only low outliers, > 0 only high ones, 0 both. It allocates only for the
// returned indices: the median and MAD are selected in place over a pooled
// scratch copy, never by sorting.
func MADOutliers(values []float64, threshold float64, direction int) []int {
	if len(values) < 3 {
		return nil
	}
	med, mad := medianMAD(values)
	if mad == 0 {
		// Degenerate fleet: anything different from the median is an outlier.
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

// CUSUM detects small persistent shifts in the mean: it accumulates
// deviations beyond a dead band K around a reference mean and fires when the
// cumulative sum crosses H. Used for slow drifts that z-scores miss.
type CUSUM struct {
	K, H float64

	ref    float64
	n      int
	warmup int
	pos    float64
	neg    float64
}

// NewCUSUM returns a CUSUM detector calibrating its reference mean over
// warmup samples, with dead band k and decision threshold h (both in the
// series' units).
func NewCUSUM(warmup int, k, h float64) *CUSUM {
	if warmup < 1 {
		panic("analytics: CUSUM warmup must be >= 1")
	}
	return &CUSUM{K: k, H: h, warmup: warmup}
}

// Step implements Detector.
func (c *CUSUM) Step(v float64) bool {
	if c.n < c.warmup {
		c.ref += (v - c.ref) / float64(c.n+1)
		c.n++
		return false
	}
	c.pos = math.Max(0, c.pos+v-c.ref-c.K)
	c.neg = math.Max(0, c.neg+c.ref-v-c.K)
	return c.pos > c.H || c.neg > c.H
}

// selScratch pools the partition buffer behind medianMAD, so the per-tick
// cross-sectional outlier scans (one per fleet per loop) allocate nothing in
// steady state.
var selScratch = sync.Pool{New: func() interface{} { return new([]float64) }}

// medianMAD returns the median and median absolute deviation of vals, leaving
// vals untouched. Both quantiles are quickselected over one pooled scratch
// buffer — two O(n) selections instead of the two O(n log n) sorts (and two
// allocations) of the sort-based form, with identical results: selection
// yields the same order statistics, interpolated by the same formula.
func medianMAD(vals []float64) (median, mad float64) {
	bp := selScratch.Get().(*[]float64)
	buf := *bp
	if cap(buf) < len(vals) {
		buf = make([]float64, len(vals))
	}
	buf = buf[:len(vals)]
	copy(buf, vals)
	median = quantileSelect(buf, 0.5)
	for i, v := range vals {
		buf[i] = math.Abs(v - median)
	}
	mad = quantileSelect(buf, 0.5)
	*bp = buf
	selScratch.Put(bp)
	return median, mad
}

// fltLess orders float64s exactly as sort.Float64s does: NaNs first, then
// ascending, so selected order statistics are those a sort would place.
func fltLess(x, y float64) bool {
	return x < y || (math.IsNaN(x) && !math.IsNaN(y))
}

// quantileSelect returns the q-quantile of a, interpolated linearly between
// the two nearest order statistics as it would be over sort.Float64s(a), but
// without the sort: it partitions a around the needed order statistics in
// place.
func quantileSelect(a []float64, q float64) float64 {
	n := len(a)
	if n == 0 {
		return math.NaN()
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	loV := selectKth(a, lo)
	if lo == hi {
		return loV
	}
	// selectKth left a fully partitioned: the hi-th order statistic is the
	// minimum of the right partition.
	hiV := a[lo+1]
	for _, v := range a[lo+2:] {
		if fltLess(v, hiV) {
			hiV = v
		}
	}
	frac := pos - float64(lo)
	return loV*(1-frac) + hiV*frac
}

// selectKth partitions a in place so that a[k] is the k-th order statistic in
// fltLess order, everything before it orders no higher, and everything after
// it no lower. Iterative Hoare quickselect, splitting on the median of three.
func selectKth(a []float64, k int) float64 {
	lo, hi := 0, len(a)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if fltLess(a[mid], a[lo]) {
			a[mid], a[lo] = a[lo], a[mid]
		}
		if fltLess(a[hi], a[lo]) {
			a[hi], a[lo] = a[lo], a[hi]
		}
		if fltLess(a[hi], a[mid]) {
			a[hi], a[mid] = a[mid], a[hi]
		}
		split := a[mid]
		// Hoare partition; a[lo] <= split <= a[hi] act as sentinels, so the
		// inner scans cannot leave the range.
		i, j := lo-1, hi+1
		for {
			for {
				i++
				if !fltLess(a[i], split) {
					break
				}
			}
			for {
				j--
				if !fltLess(split, a[j]) {
					break
				}
			}
			if i >= j {
				break
			}
			a[i], a[j] = a[j], a[i]
		}
		if k <= j {
			hi = j
		} else {
			lo = j + 1
		}
	}
	return a[k]
}
