package analytics

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// genStream builds an adversarial detector input: gaussian regimes, exact
// constant runs (including values like 0.1 whose repeated sums round), level
// shifts, near-constant ulp jitter, NaN and ±Inf bursts, and ramps — the
// segments where any arithmetic other than the rescan reference's would
// decide differently.
func genStream(rng *rand.Rand, n int) []float64 {
	out := make([]float64, 0, n)
	consts := []float64{0, 1, 0.1, -3.7, 1e9, 5}
	for len(out) < n {
		seg := 5 + rng.Intn(40)
		switch rng.Intn(8) {
		case 0, 1, 2: // gaussian regime
			level := rng.NormFloat64() * 100
			scale := math.Exp(rng.NormFloat64() * 2)
			for i := 0; i < seg; i++ {
				out = append(out, level+rng.NormFloat64()*scale)
			}
		case 3: // exact constant run
			c := consts[rng.Intn(len(consts))]
			for i := 0; i < seg; i++ {
				out = append(out, c)
			}
		case 4: // near-constant: ulp-scale jitter around a constant
			c := consts[rng.Intn(len(consts))]
			for i := 0; i < seg; i++ {
				v := c
				if rng.Intn(3) == 0 {
					v = math.Nextafter(c, c+1)
				}
				out = append(out, v)
			}
		case 5: // NaN burst
			for i := 0; i < seg/2+1; i++ {
				out = append(out, math.NaN())
			}
		case 6: // ±Inf spikes into noise
			for i := 0; i < seg; i++ {
				if rng.Intn(4) == 0 {
					out = append(out, math.Inf(1-2*rng.Intn(2)))
				} else {
					out = append(out, rng.NormFloat64())
				}
			}
		default: // ramp
			slope := rng.NormFloat64()
			base := rng.NormFloat64() * 10
			for i := 0; i < seg; i++ {
				out = append(out, base+slope*float64(i))
			}
		}
	}
	return out[:n]
}

// TestZScoreMatchesReference feeds identical adversarial streams through
// ZScore and the retained rescan reference, requiring the same decision at
// every step.
func TestZScoreMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 30; trial++ {
		window := 2 + rng.Intn(64)
		minN := 2 + rng.Intn(window)
		thr := []float64{0.5, 2, 3, 4}[rng.Intn(4)]
		inc := NewZScore(window, thr, minN)
		ref := &naiveZScore{Window: window, Threshold: thr, MinN: inc.MinN}
		stream := genStream(rng, 2000)
		for i, v := range stream {
			got, want := inc.Step(v), ref.Step(v)
			if got != want {
				t.Fatalf("trial %d (w=%d minN=%d thr=%v): step %d (v=%v): incremental=%v reference=%v",
					trial, window, minN, thr, i, v, got, want)
			}
			if rng.Intn(997) == 0 {
				inc.Reset()
				ref.Reset()
			}
		}
	}
}

// TestMADMatchesReference is the same equivalence gate for the MAD detector,
// whose quickselected order statistics must match the sort-based form.
func TestMADMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 30; trial++ {
		window := 3 + rng.Intn(64)
		minN := 3 + rng.Intn(window)
		thr := []float64{0.5, 2, 4, 6}[rng.Intn(4)]
		inc := NewMAD(window, thr, minN)
		ref := &naiveMAD{Window: window, Threshold: thr, MinN: inc.MinN}
		stream := genStream(rng, 2000)
		for i, v := range stream {
			got, want := inc.Step(v), ref.Step(v)
			if got != want {
				t.Fatalf("trial %d (w=%d minN=%d thr=%v): step %d (v=%v): incremental=%v reference=%v",
					trial, window, minN, thr, i, v, got, want)
			}
			if rng.Intn(997) == 0 {
				inc.Reset()
				ref.Reset()
			}
		}
	}
}

// TestMADDuplicateHeavyStreams stresses the MAD detector's selection with
// massive ties: values drawn from a handful of integers, where every quantile
// interpolates between duplicates.
func TestMADDuplicateHeavyStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	vals := []float64{1, 2, 2, 3, 5}
	inc := NewMAD(16, 2, 3)
	ref := &naiveMAD{Window: 16, Threshold: 2, MinN: 3}
	for i := 0; i < 20000; i++ {
		v := vals[rng.Intn(len(vals))]
		if got, want := inc.Step(v), ref.Step(v); got != want {
			t.Fatalf("step %d (v=%v): incremental=%v reference=%v", i, v, got, want)
		}
	}
}

// TestMADOutliersMatchesReference compares the quickselect cross-sectional
// outlier test against the sort-based reference on random fleets, including
// constant and duplicate-heavy ones.
func TestMADOutliersMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 500; trial++ {
		n := 3 + rng.Intn(40)
		vals := make([]float64, n)
		switch trial % 4 {
		case 0:
			for i := range vals {
				vals[i] = rng.NormFloat64() * 100
			}
		case 1: // constant fleet with occasional deviants
			c := []float64{5, 0.1, -2}[rng.Intn(3)]
			for i := range vals {
				vals[i] = c
				if rng.Intn(5) == 0 {
					vals[i] = c + rng.NormFloat64()
				}
			}
		case 2: // duplicate-heavy
			for i := range vals {
				vals[i] = float64(rng.Intn(4))
			}
		default: // one gross outlier among peers
			for i := range vals {
				vals[i] = 500 + rng.NormFloat64()*2
			}
			vals[rng.Intn(n)] = 50
		}
		dir := rng.Intn(3) - 1
		thr := []float64{2, 3, 5}[rng.Intn(3)]
		cp := append([]float64(nil), vals...)
		got := MADOutliers(vals, thr, dir)
		want := naiveMADOutliers(vals, thr, dir)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("trial %d (thr=%v dir=%d vals=%v): quickselect=%v sort=%v", trial, thr, dir, vals, got, want)
		}
		for i := range vals {
			if vals[i] != cp[i] && !(math.IsNaN(vals[i]) && math.IsNaN(cp[i])) {
				t.Fatalf("trial %d: MADOutliers mutated its input at %d", trial, i)
			}
		}
	}
}

// TestWindowOLSMatchesReference compares the ring-buffer OLS against the
// reslicing reference on adversarial streams (NaN bursts, ±Inf spikes,
// constant runs, stalled clocks): both run the same three passes in arrival
// order, so every fit — ok flag, intercept, slope and residual stddev — must
// agree bit for bit.
func TestWindowOLSMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for trial := 0; trial < 20; trial++ {
		window := 2 + rng.Intn(60)
		inc := NewWindowOLS(window)
		ref := &naiveWindowOLS{Window: window}
		tt := 1e5 * rng.Float64() // realistic epoch-offset timestamps
		vals := genStream(rng, 3000)
		for i, v := range vals {
			tt = nextTime(rng, tt)
			inc.Observe(tt, v)
			ref.Observe(tt, v)
			if msg := sameFit(inc, ref); msg != "" {
				t.Fatalf("trial %d step %d: %s", trial, i, msg)
			}
			if rng.Intn(499) == 0 {
				inc.Reset()
				ref.ts, ref.vs = nil, nil
			}
		}
	}
}

// nextTime advances an OLS test clock: mostly forward, with occasional stalls
// (repeated timestamps) that exercise the constant-time degenerate path.
func nextTime(rng *rand.Rand, t float64) float64 {
	switch rng.Intn(10) {
	case 0: // stall: same timestamp
		return t
	case 1:
		return t + 30
	default:
		return t + rng.Float64()*60
	}
}

// sameFit returns "" when the two windows' fits agree bit for bit (NaN equals
// NaN), and both fits otherwise.
func sameFit(got *WindowOLS, want *naiveWindowOLS) string {
	gi, gs, gr, gok := got.Fit()
	wi, ws, wr, wok := want.Fit()
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
	}
	if gok != wok || !same(gi, wi) || !same(gs, ws) || !same(gr, wr) {
		return fmt.Sprintf("fit (%v, %v, %v, %v), reference (%v, %v, %v, %v)", gi, gs, gr, gok, wi, ws, wr, wok)
	}
	return ""
}

// FuzzDetectorsMatchReference drives ZScore, MAD and WindowOLS and their
// naive references with one stream. The first three bytes pick the window,
// MinN and threshold; every following 16 bytes are one observation, a
// little-endian float64 timestamp (for WindowOLS) and value, so the stream
// can hold anything a float64 can: NaN payloads, ±0, ±Inf, subnormals. At
// every step the detectors' decisions must equal the references' and the
// fits must agree bit for bit.
func FuzzDetectorsMatchReference(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := []byte{byte(rng.Intn(32)), byte(rng.Intn(36)), byte(rng.Intn(256))}
		tt := 1e5 * rng.Float64()
		for _, v := range genStream(rng, 64) {
			tt = nextTime(rng, tt)
			data = binary.LittleEndian.AppendUint64(data, math.Float64bits(tt))
			data = binary.LittleEndian.AppendUint64(data, math.Float64bits(v))
		}
		f.Add(data)
	}
	// Values genStream never draws: signed zeros, subnormals, NaN payloads.
	edge := []byte{4, 3, 64}
	for i, v := range []float64{0, math.Copysign(0, -1), 0, 5e-324, -5e-324, math.Float64frombits(0x7ff8000000000001),
		math.Float64frombits(0xfff4000000000000), 0, math.Copysign(0, -1), math.SmallestNonzeroFloat64 * 3, 1, math.MaxFloat64} {
		edge = binary.LittleEndian.AppendUint64(edge, math.Float64bits(float64(i/2)))
		edge = binary.LittleEndian.AppendUint64(edge, math.Float64bits(v))
	}
	f.Add(edge)

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		window, minN, thr := 2+int(data[0]%32), int(data[1]%36), float64(data[2])/32
		z := NewZScore(window, thr, minN)
		zRef := &naiveZScore{Window: window, Threshold: thr, MinN: z.MinN}
		madWindow := max(window, 3)
		m := NewMAD(madWindow, thr, minN)
		mRef := &naiveMAD{Window: madWindow, Threshold: thr, MinN: m.MinN}
		ols := NewWindowOLS(window)
		olsRef := &naiveWindowOLS{Window: window}
		for i, rec := 0, data[3:]; len(rec) >= 16; i, rec = i+1, rec[16:] {
			tt := math.Float64frombits(binary.LittleEndian.Uint64(rec))
			v := math.Float64frombits(binary.LittleEndian.Uint64(rec[8:]))
			if got, want := z.Step(v), zRef.Step(v); got != want {
				t.Fatalf("step %d (v=%v): zscore=%v reference=%v", i, v, got, want)
			}
			if got, want := m.Step(v), mRef.Step(v); got != want {
				t.Fatalf("step %d (v=%v): mad=%v reference=%v", i, v, got, want)
			}
			ols.Observe(tt, v)
			olsRef.Observe(tt, v)
			if msg := sameFit(ols, olsRef); msg != "" {
				t.Fatalf("step %d (t=%v v=%v): %s", i, tt, v, msg)
			}
		}
	})
}

// TestWindowOLSConstantTimeDegenerate pins the degenerate contract directly:
// a window whose timestamps are all identical must be rejected exactly as
// the reference rejects it, for every prefix.
func TestWindowOLSConstantTimeDegenerate(t *testing.T) {
	inc := NewWindowOLS(8)
	ref := &naiveWindowOLS{Window: 8}
	for i := 0; i < 40; i++ {
		inc.Observe(100, float64(i))
		ref.Observe(100, float64(i))
		_, _, _, gok := inc.Fit()
		_, _, _, wok := ref.Fit()
		if gok != wok {
			t.Fatalf("step %d: ok=%v, reference=%v", i, gok, wok)
		}
	}
}

// TestDetectorStepAllocs is the steady-state allocation gate: once warm, no
// detector step, forecaster observation, fit, or TTC estimate allocates.
func TestDetectorStepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the gate runs in the non-race jobs")
	}
	rng := rand.New(rand.NewSource(61))
	data := make([]float64, 4096)
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	idx := 0
	next := func() float64 {
		idx++
		return data[idx%len(data)]
	}

	z := NewZScore(64, 3, 5)
	m := NewMAD(64, 4, 5)
	c := NewCUSUM(10, 0.1, 1)
	for i := 0; i < 256; i++ { // warm every window
		v := next()
		z.Step(v)
		m.Step(v)
		c.Step(v)
	}
	for name, step := range map[string]func() bool{
		"zscore": func() bool { return z.Step(next()) },
		"mad":    func() bool { return m.Step(next()) },
		"cusum":  func() bool { return c.Step(next()) },
	} {
		if allocs := testing.AllocsPerRun(1000, func() { step() }); allocs != 0 {
			t.Errorf("%s.Step allocates %v per step; want 0", name, allocs)
		}
	}

	ols := NewWindowOLS(64)
	ttc := NewTTCEstimator(30)
	ttc.SetTotal(1e9)
	tt := 0.0
	for i := 0; i < 128; i++ {
		tt += 1 + rng.Float64()
		ols.Observe(tt, next())
		ttc.Observe(tt, float64(i))
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		tt += 1
		ols.Observe(tt, next())
		ols.Fit()
	}); allocs != 0 {
		t.Errorf("WindowOLS Observe+Fit allocates %v per step; want 0", allocs)
	}
	n := 128.0
	if allocs := testing.AllocsPerRun(1000, func() {
		tt += 1
		n++
		ttc.Observe(tt, n)
		ttc.Estimate(1.645)
	}); allocs != 0 {
		t.Errorf("TTCEstimator Observe+Estimate allocates %v per step; want 0", allocs)
	}

	// Cross-sectional scan: with no outliers to return, the pooled-scratch
	// quickselect allocates nothing.
	fleet := make([]float64, 64)
	for i := range fleet {
		fleet[i] = 100 + rng.Float64()
	}
	if allocs := testing.AllocsPerRun(1000, func() { MADOutliers(fleet, 50, 0) }); allocs != 0 {
		t.Errorf("MADOutliers allocates %v per scan with no outliers; want 0", allocs)
	}
}
