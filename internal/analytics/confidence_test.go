package analytics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestConfidenceNeutralPrior(t *testing.T) {
	c := NewConfidenceTracker(0, 0)
	if got := c.Confidence(); got != 0.5 {
		t.Errorf("prior confidence = %v, want 0.5", got)
	}
}

func TestConfidenceRisesWithAccuracy(t *testing.T) {
	c := NewConfidenceTracker(0.25, 0.2)
	for i := 0; i < 20; i++ {
		c.Resolve(100, 101) // 1% error
	}
	if got := c.Confidence(); got < 0.9 {
		t.Errorf("confidence = %v, want > 0.9 for 1%% errors", got)
	}
	if c.n != 20 {
		t.Errorf("n = %d", c.n)
	}
}

func TestConfidenceFallsWithError(t *testing.T) {
	c := NewConfidenceTracker(0.25, 0.2)
	for i := 0; i < 20; i++ {
		c.Resolve(200, 100) // 100% error
	}
	if got := c.Confidence(); got > 0.25 {
		t.Errorf("confidence = %v, want low for 100%% errors", got)
	}
	if math.Abs(c.mape-1.0) > 0.01 {
		t.Errorf("MAPE = %v, want ~1.0", c.mape)
	}
}

func TestConfidenceHalfErrCalibration(t *testing.T) {
	c := NewConfidenceTracker(0.25, 1.0)
	c.Resolve(125, 100) // exactly 25% error
	if got := c.Confidence(); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("confidence at half-error = %v, want 0.5", got)
	}
}

func TestConfidenceRecovers(t *testing.T) {
	c := NewConfidenceTracker(0.25, 0.3)
	for i := 0; i < 10; i++ {
		c.Resolve(200, 100)
	}
	low := c.Confidence()
	for i := 0; i < 30; i++ {
		c.Resolve(100, 100)
	}
	if got := c.Confidence(); got <= low {
		t.Errorf("confidence should recover: %v -> %v", low, got)
	}
}

func TestConfidenceZeroActual(t *testing.T) {
	c := NewConfidenceTracker(0.25, 0.2)
	c.Resolve(1, 0) // guarded division
	if got := c.Confidence(); got < 0 || got > 1 || math.IsNaN(got) {
		t.Errorf("confidence = %v, want valid [0,1]", got)
	}
}

// Property: confidence is always in [0,1].
func TestConfidenceBoundedProperty(t *testing.T) {
	f := func(pairs [][2]float64) bool {
		c := NewConfidenceTracker(0.25, 0.2)
		for _, p := range pairs {
			if math.IsNaN(p[0]) || math.IsNaN(p[1]) || math.IsInf(p[0], 0) || math.IsInf(p[1], 0) {
				continue
			}
			c.Resolve(p[0], p[1])
		}
		got := c.Confidence()
		return got >= 0 && got <= 1 && !math.IsNaN(got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
