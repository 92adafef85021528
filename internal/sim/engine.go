// Package sim provides a deterministic discrete-event simulation kernel.
//
// Every substrate in this repository (cluster, scheduler, filesystem,
// applications, facility) and every MAPE-K autonomy loop is driven by a
// sim.Engine: events are scheduled at virtual timestamps and executed in
// timestamp order, with ties broken by scheduling sequence so that runs are
// reproducible bit-for-bit for a given seed.
//
// Virtual time is represented as time.Duration elapsed since the simulation
// epoch. The helper VirtualClock adapts an Engine to the core.Clock interface
// used by loop components, so the same loop code runs unchanged on wall-clock
// time in daemons.
package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"time"
)

// event is a scheduled callback. seq orders events with equal timestamps in
// scheduling order, which keeps the simulation deterministic.
type event struct {
	at  time.Duration
	seq uint64
	fn  func()
}

// eventHeap implements heap.Interface ordered by (at, seq).
type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// Engine is a single-threaded discrete-event simulator. It is not safe for
// concurrent use; all simulated components run in event callbacks on the
// engine's single logical thread, which is what makes runs deterministic.
type Engine struct {
	now     time.Duration
	pending eventHeap
	seq     uint64
	rng     *rand.Rand

	// Executed counts events that have run, for diagnostics and tests.
	executed uint64
}

// NewEngine returns an engine at time zero whose random source is seeded with
// seed. Two engines constructed with the same seed and fed the same schedule
// produce identical histories.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time (elapsed since the simulation epoch).
func (e *Engine) Now() time.Duration { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Executed reports how many events have run so far.
func (e *Engine) Executed() uint64 { return e.executed }

// At schedules fn to run at absolute virtual time at. Scheduling in the past
// (before Now) panics: it would silently reorder history.
func (e *Engine) At(at time.Duration, fn func()) {
	if fn == nil {
		panic("sim: At called with nil fn")
	}
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
	}
	e.seq++
	heap.Push(&e.pending, &event{at: at, seq: e.seq, fn: fn})
}

// After schedules fn to run d after the current time. Negative d is treated
// as zero (run at the current instant, after already-queued events at Now).
func (e *Engine) After(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	e.At(e.now+d, fn)
}

// Every schedules fn to run at start and then every period thereafter, for as
// long as fn returns true. A non-positive period panics.
func (e *Engine) Every(start, period time.Duration, fn func() bool) {
	if period <= 0 {
		panic("sim: Every requires a positive period")
	}
	var tick func()
	tick = func() {
		if fn() {
			e.At(e.now+period, tick)
		}
	}
	e.At(start, tick)
}

// Step executes the single next event, advancing virtual time to it. It
// returns false when no events remain.
func (e *Engine) Step() bool {
	if len(e.pending) == 0 {
		return false
	}
	ev := heap.Pop(&e.pending).(*event)
	e.now = ev.at
	e.executed++
	ev.fn()
	return true
}

// Run executes events until the schedule is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with timestamps <= deadline and then advances the
// clock to deadline. Events scheduled beyond the deadline remain pending.
func (e *Engine) RunUntil(deadline time.Duration) {
	for len(e.pending) > 0 && e.pending[0].at <= deadline {
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}
