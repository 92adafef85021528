package sim

import "time"

// Clock abstracts the passage of time for loop components so that the same
// code runs under simulated virtual time and under the wall clock. It is
// deliberately minimal: autonomy-loop phases only ever need "what time is it"
// and "run this later"; periodic behavior is built from those.
type Clock interface {
	// Now returns the current time as elapsed duration since the epoch.
	Now() time.Duration
	// AfterFunc arranges for fn to run d from now.
	AfterFunc(d time.Duration, fn func())
}

// VirtualClock adapts an Engine to the Clock interface.
type VirtualClock struct{ Engine *Engine }

// Now implements Clock.
func (c VirtualClock) Now() time.Duration { return c.Engine.Now() }

// AfterFunc implements Clock.
func (c VirtualClock) AfterFunc(d time.Duration, fn func()) { c.Engine.After(d, fn) }

// TickEvery schedules tick to run on clock every period until stop returns
// true (stop may be nil for "run forever"). It is the one periodic-driver
// shape shared by single loops and fleet coordinators.
func TickEvery(clock Clock, period time.Duration, stop func() bool, tick func(now time.Duration)) {
	if period <= 0 {
		panic("sim: TickEvery requires a positive period")
	}
	var run func()
	run = func() {
		if stop != nil && stop() {
			return
		}
		tick(clock.Now())
		clock.AfterFunc(period, run)
	}
	clock.AfterFunc(period, run)
}
