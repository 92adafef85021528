package analytics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHoltLearnsTrend(t *testing.T) {
	h := NewHolt(0.5, 0.3)
	// Perfect line: v = 2t + 3.
	for i := 0; i <= 50; i++ {
		tt := float64(i)
		h.Observe(tt, 2*tt+3)
	}
	f := h.Predict(10)
	want := 2*60.0 + 3
	if math.Abs(f.Value-want) > 1.0 {
		t.Errorf("forecast = %v, want ~%v", f.Value, want)
	}
	if math.Abs(h.trend-2) > 0.05 {
		t.Errorf("trend = %v, want ~2", h.trend)
	}
}

func TestHoltIrregularSampling(t *testing.T) {
	h := NewHolt(0.5, 0.3)
	ts := []float64{0, 1, 3, 7, 8, 12, 20, 21, 30}
	for _, tt := range ts {
		h.Observe(tt, 5*tt)
	}
	f := h.Predict(10)
	if math.Abs(f.Value-5*40) > 8 {
		t.Errorf("forecast = %v, want ~200", f.Value)
	}
}

func TestWindowOLSExactLine(t *testing.T) {
	w := NewWindowOLS(10)
	for i := 0; i < 10; i++ {
		w.Observe(float64(i), 3*float64(i)+1)
	}
	intercept, slope, resStd, ok := w.Fit()
	if !ok {
		t.Fatal("fit failed")
	}
	if math.Abs(slope-3) > 1e-9 || math.Abs(intercept-1) > 1e-9 {
		t.Errorf("fit = %v + %v t", intercept, slope)
	}
	if resStd > 1e-9 {
		t.Errorf("resStd = %v, want 0", resStd)
	}
	f := w.Predict(5)
	if math.Abs(f.Value-(3*14+1)) > 1e-9 {
		t.Errorf("predict = %v, want 43", f.Value)
	}
}

func TestWindowOLSSlidesWindow(t *testing.T) {
	w := NewWindowOLS(5)
	// Old regime slope 1, then slope 10; the window must forget the old regime.
	for i := 0; i < 10; i++ {
		w.Observe(float64(i), float64(i))
	}
	for i := 10; i < 15; i++ {
		w.Observe(float64(i), float64(i)*10-90)
	}
	if _, s, _, _ := w.Fit(); math.Abs(s-10) > 1e-6 {
		t.Errorf("slope = %v, want 10 after window slides", s)
	}
}

func TestWindowOLSDegenerate(t *testing.T) {
	w := NewWindowOLS(5)
	if _, _, _, ok := w.Fit(); ok {
		t.Error("empty fit should fail")
	}
	w.Observe(1, 5)
	w.Observe(1, 7) // same timestamp: Sxx = 0
	if _, _, _, ok := w.Fit(); ok {
		t.Error("degenerate fit should fail")
	}
	if f := w.Predict(1); !math.IsNaN(f.Value) {
		t.Error("degenerate predict should be NaN")
	}
}

func TestWindowOLSPanicsOnTinyWindow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewWindowOLS(1)
}

// Property: on noiseless linear data, OLS slope recovery is exact for any
// slope/intercept.
func TestOLSRecoversLineProperty(t *testing.T) {
	f := func(slope, intercept float64) bool {
		if math.Abs(slope) > 1e6 || math.Abs(intercept) > 1e6 {
			return true
		}
		w := NewWindowOLS(20)
		for i := 0; i < 20; i++ {
			tt := float64(i)
			w.Observe(tt, slope*tt+intercept)
		}
		_, got, _, ok := w.Fit()
		return ok && math.Abs(got-slope) < 1e-6*(1+math.Abs(slope))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestForecastersUnderNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	mkData := func() ([]float64, []float64) {
		var ts, vs []float64
		for i := 0; i < 200; i++ {
			ts = append(ts, float64(i))
			vs = append(vs, 4*float64(i)+rng.NormFloat64()*5)
		}
		return ts, vs
	}
	for _, fc := range []Forecaster{NewHolt(0.3, 0.2), NewWindowOLS(50)} {
		ts, vs := mkData()
		for i := range ts {
			fc.Observe(ts[i], vs[i])
		}
		f := fc.Predict(20)
		want := 4 * 219.0
		if math.Abs(f.Value-want) > 25 {
			t.Errorf("%T forecast = %v, want ~%v", fc, f.Value, want)
		}
		if f.Stddev <= 0 {
			t.Errorf("%T stddev = %v, want positive under noise", fc, f.Stddev)
		}
	}
}
