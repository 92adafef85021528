package analytics

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestTTCSteadyRate(t *testing.T) {
	e := NewTTCEstimator(30)
	e.SetTotal(1000)
	// 2 iterations/second observed every 10s for 100s -> 200 done.
	for i := 0; i <= 10; i++ {
		tt := float64(i * 10)
		e.Observe(tt, 2*tt)
	}
	est := e.Estimate(1.96)
	if !est.OK() {
		t.Fatal("estimate should be OK")
	}
	// 800 remaining at 2/s = 400s.
	want := 400 * time.Second
	if est.Remaining != want {
		t.Errorf("remaining = %v, want %v", est.Remaining, want)
	}
	if est.Rate != 2 {
		t.Errorf("rate = %v", est.Rate)
	}
	if est.Lo > est.Remaining || est.Hi < est.Remaining {
		t.Errorf("interval [%v, %v] excludes mean %v", est.Lo, est.Hi, est.Remaining)
	}
}

func TestTTCNoisyRateHasWiderInterval(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	mk := func(noise float64) TTC {
		e := NewTTCEstimator(30)
		e.SetTotal(10000)
		done := 0.0
		for i := 0; i < 30; i++ {
			done += 10 + rng.NormFloat64()*noise
			e.Observe(float64(i*10), done)
		}
		return e.Estimate(1.96)
	}
	clean := mk(0.1)
	noisy := mk(5)
	cleanWidth := clean.Hi - clean.Lo
	noisyWidth := noisy.Hi - noisy.Lo
	if noisyWidth <= cleanWidth {
		t.Errorf("noisy interval (%v) should exceed clean (%v)", noisyWidth, cleanWidth)
	}
}

func TestTTCWithoutTotalNotOK(t *testing.T) {
	e := NewTTCEstimator(10)
	for i := 0; i < 10; i++ {
		e.Observe(float64(i), float64(i))
	}
	if e.Estimate(1.96).OK() {
		t.Error("estimate without total must not be OK")
	}
	if e.haveTotal {
		t.Error("total should be unset")
	}
}

func TestTTCStalledProgressNotOK(t *testing.T) {
	e := NewTTCEstimator(10)
	e.SetTotal(100)
	for i := 0; i < 10; i++ {
		e.Observe(float64(i*10), 50) // no progress
	}
	if e.Estimate(1.96).OK() {
		t.Error("zero-rate estimate must not be OK")
	}
}

func TestTTCCompletedWork(t *testing.T) {
	e := NewTTCEstimator(10)
	e.SetTotal(100)
	for i := 0; i <= 10; i++ {
		e.Observe(float64(i), float64(i*10))
	}
	est := e.Estimate(1.96)
	if est.Remaining != 0 {
		t.Errorf("remaining = %v, want 0 at completion", est.Remaining)
	}
}

func TestSecDurBounds(t *testing.T) {
	if secDur(-5) != 0 {
		t.Error("negative seconds should clamp to 0")
	}
	if secDur(math.Inf(1)) <= 0 {
		t.Error("infinite seconds should clamp to a large positive duration")
	}
}
