package analytics

import (
	"math/rand"
	"testing"
)

func TestZScoreFlagsSpike(t *testing.T) {
	z := NewZScore(20, 3, 5)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20; i++ {
		if z.Step(10 + rng.NormFloat64()) {
			t.Fatalf("false positive at %d", i)
		}
	}
	if !z.Step(30) {
		t.Error("missed a 20-sigma spike")
	}
}

func TestZScoreWarmup(t *testing.T) {
	z := NewZScore(20, 3, 5)
	for i := 0; i < 4; i++ {
		if z.Step(float64(i * 100)) {
			t.Error("must not fire during warmup")
		}
	}
}

func TestZScoreConstantSeries(t *testing.T) {
	z := NewZScore(10, 3, 3)
	for i := 0; i < 10; i++ {
		z.Step(5)
	}
	if z.Step(5) {
		t.Error("constant value should not alarm")
	}
	if !z.Step(6) {
		t.Error("deviation from constant series should alarm")
	}
}

func TestZScorePanicsOnTinyWindow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewZScore(1, 3, 2)
}

func TestMADRobustToPriorOutliers(t *testing.T) {
	m := NewMAD(20, 4, 5)
	// Base distribution around 10, with occasional prior spikes that would
	// inflate a stddev but not the MAD.
	vals := []float64{10, 10.1, 9.9, 10, 50, 10.05, 9.95, 10, 10.1, 9.9}
	for _, v := range vals {
		m.Step(v)
	}
	if !m.Step(60) {
		t.Error("missed gross outlier despite contaminated window")
	}
	if m.Step(10.02) {
		t.Error("normal value flagged")
	}
}

func TestMADPanicsOnTinyWindow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewMAD(2, 3, 3)
}

func TestMADOutliersFleet(t *testing.T) {
	// 8 OSTs, one slow (index 5).
	bw := []float64{500, 498, 503, 501, 499, 50, 502, 500}
	low := MADOutliers(bw, 5, -1)
	if len(low) != 1 || low[0] != 5 {
		t.Errorf("low outliers = %v, want [5]", low)
	}
	if high := MADOutliers(bw, 5, 1); len(high) != 0 {
		t.Errorf("high outliers = %v, want none", high)
	}
	both := MADOutliers(bw, 5, 0)
	if len(both) != 1 || both[0] != 5 {
		t.Errorf("both outliers = %v", both)
	}
}

func TestMADOutliersDegenerateFleet(t *testing.T) {
	same := []float64{5, 5, 5, 5, 7}
	out := MADOutliers(same, 3, 1)
	if len(out) != 1 || out[0] != 4 {
		t.Errorf("degenerate outliers = %v, want [4]", out)
	}
	if MADOutliers([]float64{1, 2}, 3, 0) != nil {
		t.Error("tiny fleet should return nil")
	}
}

func TestCUSUMDetectsSlowDrift(t *testing.T) {
	c := NewCUSUM(20, 0.5, 5)
	rng := rand.New(rand.NewSource(5))
	fired := -1
	for i := 0; i < 200; i++ {
		v := 10 + rng.NormFloat64()*0.5
		if i >= 50 {
			// tiny persistent shift of +1 (2 sigma of noise, invisible to
			// a single-sample z-test at 3 sigma)
			v += 1
		}
		if c.Step(v) {
			fired = i
			break
		}
	}
	if fired < 50 {
		t.Fatalf("fired at %d (before or without shift)", fired)
	}
	if fired > 80 {
		t.Errorf("took too long: fired at %d", fired)
	}
}

func TestCUSUMPanicsOnZeroWarmup(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewCUSUM(0, 1, 1)
}
