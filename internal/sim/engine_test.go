package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestEngineRunsEventsInTimestampOrder(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.At(30*time.Second, func() { got = append(got, 3) })
	e.At(10*time.Second, func() { got = append(got, 1) })
	e.At(20*time.Second, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30*time.Second {
		t.Errorf("Now = %v, want 30s", e.Now())
	}
}

func TestEngineTiesBreakInSchedulingOrder(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(time.Second, func() { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("tie order = %v, want ascending", got)
		}
	}
}

func TestEngineSchedulingInPastPanics(t *testing.T) {
	e := NewEngine(1)
	e.At(10*time.Second, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		e.At(5*time.Second, func() {})
	})
	e.Run()
}

func TestEngineNilFnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for nil fn")
		}
	}()
	NewEngine(1).At(0, nil)
}

func TestEngineAfterNegativeClampsToNow(t *testing.T) {
	e := NewEngine(1)
	ran := false
	e.At(5*time.Second, func() {
		e.After(-time.Second, func() { ran = true })
	})
	e.Run()
	if !ran {
		t.Error("negative After never ran")
	}
	if e.Now() != 5*time.Second {
		t.Errorf("Now = %v, want 5s", e.Now())
	}
}

func TestEngineEvery(t *testing.T) {
	e := NewEngine(1)
	count := 0
	e.Every(time.Second, time.Second, func() bool {
		count++
		return count < 5
	})
	e.Run()
	if count != 5 {
		t.Errorf("count = %d, want 5", count)
	}
	if e.Now() != 5*time.Second {
		t.Errorf("Now = %v, want 5s", e.Now())
	}
}

func TestEngineEveryZeroPeriodPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for zero period")
		}
	}()
	NewEngine(1).Every(0, 0, func() bool { return true })
}

func TestEngineRunUntilLeavesFutureEventsPending(t *testing.T) {
	e := NewEngine(1)
	ran := 0
	e.At(time.Second, func() { ran++ })
	e.At(time.Minute, func() { ran++ })
	e.RunUntil(30 * time.Second)
	if ran != 1 {
		t.Errorf("ran = %d, want 1", ran)
	}
	if e.Now() != 30*time.Second {
		t.Errorf("Now = %v, want 30s", e.Now())
	}
	if n := len(e.pending); n != 1 {
		t.Errorf("pending = %d, want 1", n)
	}
	e.Run()
	if ran != 2 {
		t.Errorf("after Run ran = %d, want 2", ran)
	}
}

func TestEngineDeterminism(t *testing.T) {
	run := func(seed int64) []time.Duration {
		e := NewEngine(seed)
		var times []time.Duration
		e.Every(0, time.Second, func() bool {
			jitter := time.Duration(e.Rand().Int63n(int64(time.Second)))
			e.After(jitter, func() { times = append(times, e.Now()) })
			return len(times) < 50
		})
		e.RunUntil(100 * time.Second)
		return times
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("histories diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestVirtualClock(t *testing.T) {
	e := NewEngine(1)
	c := VirtualClock{Engine: e}
	var at time.Duration
	c.AfterFunc(7*time.Second, func() { at = c.Now() })
	e.Run()
	if at != 7*time.Second {
		t.Errorf("fired at %v, want 7s", at)
	}
}

func TestDistributionsNonNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dists := []Dist{
		Constant{time.Second},
		Exponential{time.Second},
		LogNormal{time.Second, 1.5},
	}
	for _, d := range dists {
		for i := 0; i < 1000; i++ {
			if v := d.Sample(rng); v < 0 {
				t.Fatalf("%T produced negative sample %v", d, v)
			}
		}
	}
}

func TestLogNormalMeanApproximately(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := LogNormal{MeanV: 10 * time.Second, CV: 0.5}
	var sum time.Duration
	n := 20000
	for i := 0; i < n; i++ {
		sum += d.Sample(rng)
	}
	mean := float64(sum) / float64(n)
	want := float64(10 * time.Second)
	if mean < 0.95*want || mean > 1.05*want {
		t.Errorf("empirical mean %.3gs, want ~10s", mean/1e9)
	}
}

// Property: RunUntil never executes an event scheduled after the deadline,
// and always advances Now to exactly the deadline.
func TestRunUntilProperty(t *testing.T) {
	f := func(offsets []uint16, deadline uint16) bool {
		e := NewEngine(3)
		dl := time.Duration(deadline) * time.Millisecond
		violated := false
		for _, o := range offsets {
			at := time.Duration(o) * time.Millisecond
			e.At(at, func() {
				if e.Now() > dl {
					violated = true
				}
			})
		}
		e.RunUntil(dl)
		return !violated && e.Now() == dl
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
