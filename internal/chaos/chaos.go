// Package chaos is the deterministic fault-injection layer under the
// daemon's resilience tests. It wraps the real transports and storage the
// system already uses: a frame-aware TCP proxy that drops, duplicates and
// partitions newline-delimited bus frames on a seeded schedule and resets a
// stream mid-flight; and a wal.FS implementation simulating short writes,
// fsync failures and ENOSPC. Everything is seed- or countdown-driven, so a
// chaos schedule replays identically, and disarmable at run time (one
// atomic load per frame when disarmed). Only tests import it.
package chaos

import (
	"math/rand"
	"sync"
	"sync/atomic"
)

// Faults is one armed fault profile. The zero value injects nothing; each
// field arms one fault class. Rates are probabilities in [0, 1] drawn from
// the injector's seeded source, so a given (seed, schedule) replays
// identically.
type Faults struct {
	// DropRate / DupRate are per-frame probabilities: dropped frames vanish
	// (the transport ACKed them — no retransmit), duplicated frames arrive
	// twice.
	DropRate float64
	DupRate  float64

	// PartitionToTarget drops every frame flowing dialer→target;
	// PartitionFromTarget drops target→dialer. Both together are a full
	// partition; one alone is the asymmetric partition that real networks
	// produce and naive protocols mishandle.
	PartitionToTarget   bool
	PartitionFromTarget bool

	// ResetAfter forcibly closes the connection after this many more
	// frames in either direction (0 = never) — the mid-stream RST.
	ResetAfter int
}

// verdict is the injector's per-frame decision.
type verdict struct {
	drop  bool
	dup   bool
	reset bool
}

// Injector owns one seeded fault schedule for a Proxy. Arm/Disarm may be
// called at any time from any goroutine (a test driving phases of a chaos
// schedule).
type Injector struct {
	armed atomic.Bool

	mu     sync.Mutex
	rng    *rand.Rand
	faults Faults
	frames int // frames seen since the last Arm (drives ResetAfter)

	dropped   atomic.Uint64
	duplicate atomic.Uint64
	resets    atomic.Uint64
}

// NewInjector returns a disarmed Injector whose random draws come from the
// given seed.
func NewInjector(seed int64) *Injector {
	return &Injector{rng: rand.New(rand.NewSource(seed))}
}

// Arm installs a fault profile, resetting the ResetAfter countdown.
func (i *Injector) Arm(f Faults) {
	i.mu.Lock()
	i.faults = f
	i.frames = 0
	i.mu.Unlock()
	i.armed.Store(true)
}

// Disarm stops injecting; new frames pass through untouched.
func (i *Injector) Disarm() { i.armed.Store(false) }

// Armed reports whether a fault profile is active.
func (i *Injector) Armed() bool { return i.armed.Load() }

// Counters returns how many frames were dropped and duplicated, and how
// many resets were injected, since the injector was created.
func (i *Injector) Counters() (dropped, duplicated, resets uint64) {
	return i.dropped.Load(), i.duplicate.Load(), i.resets.Load()
}

// frameVerdict decides the fate of one frame flowing toward (toTarget=true)
// or from the proxied target. Caller must have checked Armed.
func (i *Injector) frameVerdict(toTarget bool) verdict {
	i.mu.Lock()
	f := i.faults
	i.frames++
	var v verdict
	switch {
	case f.ResetAfter > 0 && i.frames >= f.ResetAfter:
		v.reset = true
		// One reset per arming: the countdown does not re-fire for the
		// next connection unless the schedule re-arms.
		i.faults.ResetAfter = 0
	case (toTarget && f.PartitionToTarget) || (!toTarget && f.PartitionFromTarget):
		v.drop = true
	case f.DropRate > 0 && i.rng.Float64() < f.DropRate:
		v.drop = true
	case f.DupRate > 0 && i.rng.Float64() < f.DupRate:
		v.dup = true
	}
	i.mu.Unlock()

	switch {
	case v.reset:
		i.resets.Add(1)
	case v.drop:
		i.dropped.Add(1)
	case v.dup:
		i.duplicate.Add(1)
	}
	return v
}
