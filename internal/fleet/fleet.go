// Package fleet runs many MAPE-K autonomy loops concurrently under one
// coordinator — the step the paper's vision of simultaneous facility-,
// system-, and job-level loops requires once more than a handful of loops
// share one managed system.
//
// A Coordinator owns a set of core.Loops and ticks them in rounds: the plan
// half of every loop (Monitor/Analyze/Plan) fans out over a worker pool, a
// round barrier waits for all of them, per-subject arbitration (the Yields
// rule) resolves cross-loop conflicts among the planned actions, and the
// execute halves run serially in registration order. Because the plan half
// touches only loop-local state (its bus events wait in the loop's own
// buffer) and everything order-sensitive happens after the barrier, a
// round's outcome is bit-identical regardless of worker count or goroutine
// scheduling — fixed-seed experiment tables survive the concurrency.
package fleet

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"autoloop/internal/bus"
	"autoloop/internal/core"
	"autoloop/internal/sim"
)

// TopicRound is the bus topic carrying one RoundSummary per coordinator
// round.
const TopicRound = "fleet.round"

// TopicConflict is the bus topic carrying one ConflictRecord per arbitrated
// subject per round.
const TopicConflict = "fleet.conflict"

// RoundSummary is the envelope payload published on TopicRound.
type RoundSummary struct {
	Round      int `json:"round"`
	Loops      int `json:"loops"`
	Planned    int `json:"planned"`
	Arbitrated int `json:"arbitrated"`
	Conflicts  int `json:"conflicts"`
	// Remote counts actions this round that survived local arbitration but
	// were denied by an external (cross-node) arbiter.
	Remote int `json:"remote,omitempty"`
}

// Metrics counts coordinator activity across rounds.
type Metrics struct {
	Rounds     int
	Planned    int // actions planned across all loops
	Arbitrated int // actions lost to cross-loop arbitration
	Conflicts  int // conflict groups resolved
	Remote     int // actions denied by the external (cross-node) arbiter
}

// ActionDigest summarizes one planned action that survived local arbitration,
// in the form an external arbiter (a cluster coordinator resolving conflicts
// across worker processes) needs to decide cross-node contention: who plans
// what on which subject, at which local priority.
type ActionDigest struct {
	Loop       string  `json:"loop"`
	Kind       string  `json:"kind"`
	Subject    string  `json:"subject"`
	Priority   int     `json:"priority"`
	Amount     float64 `json:"amount,omitempty"`
	Confidence float64 `json:"confidence,omitempty"`
}

// member is one registered loop with its arbitration priority and tick
// cadence (the loop plans on every every-th round).
type member struct {
	loop     *core.Loop
	priority int
	every    int
	n        int // rounds since the member last planned
}

// Coordinator ticks a fleet of loops concurrently with cross-loop conflict
// arbitration. The zero value is not usable; construct with New. Tick must be
// called from one goroutine (under the simulator, the engine thread).
type Coordinator struct {
	workers int
	bus     *bus.Bus
	source  string

	members []member
	names   map[string]bool
	plans   []*core.PlannedTick // reused across rounds
	metrics Metrics

	// external, when set, is consulted between local arbitration and the
	// execute phase: it receives digests of the round's surviving actions
	// and returns a parallel deny mask. See SetExternalArbiter.
	external func(now time.Duration, digests []ActionDigest) []bool
	digests  []ActionDigest // reused across rounds
	digRefs  []digestRef    // reused across rounds
}

// digestRef locates a digest's action in the round's plan set.
type digestRef struct{ mi, ai int }

// New returns a coordinator whose plan phase fans out over workers
// goroutines; workers <= 0 selects GOMAXPROCS. A single worker degenerates to
// sequential planning, which is useful as a determinism baseline.
func New(workers int) *Coordinator {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Coordinator{workers: workers, names: make(map[string]bool)}
}

// PublishTo arranges for every round to publish its ConflictRecords and
// RoundSummary on b as one batch. source tags the envelopes. Returns c for
// chaining.
func (c *Coordinator) PublishTo(b *bus.Bus, source string) *Coordinator {
	c.bus = b
	c.source = source
	return c
}

// SetExternalArbiter installs a cross-node arbitration hook, consulted after
// the local arbiter and before the execute phase of every round that planned
// at least one subject-bearing action. The hook receives one digest per
// surviving action and returns a parallel slice; true at index i suppresses
// digest i's action exactly like a local arbitration loss (the action is
// published and counted as arbitrated, and additionally as Metrics.Remote).
// A nil hook (the default) keeps rounds byte-identical to the single-node
// coordinator. The hook runs on the tick goroutine and may block — a cluster
// worker uses it for a digest/verdict round trip with its coordinator.
func (c *Coordinator) SetExternalArbiter(f func(now time.Duration, digests []ActionDigest) []bool) {
	c.external = f
}

// Add registers a loop with an arbitration priority: on a cross-loop conflict
// the higher priority wins (see Yields), with registration order breaking
// ties. Registration order also fixes the
// deterministic execute order. Loop names must be unique within a fleet so
// conflict records are unambiguous.
func (c *Coordinator) Add(l *core.Loop, priority int) {
	c.AddEvery(l, priority, 1)
}

// AddEvery registers a loop that plans only on every every-th round — the
// fleet-level form of a per-loop period: under a coordinator driven at base
// cadence P, a loop spec'd with period N*P registers with every=N. The
// first plan happens on the member's every-th round after joining.
func (c *Coordinator) AddEvery(l *core.Loop, priority, every int) {
	if l == nil {
		panic("fleet: Add with nil loop")
	}
	if c.names[l.Name] {
		panic(fmt.Sprintf("fleet: duplicate loop name %q", l.Name))
	}
	if every < 1 {
		every = 1
	}
	c.names[l.Name] = true
	c.members = append(c.members, member{loop: l, priority: priority, every: every})
}

// Remove unregisters the named loop mid-run and reports whether it was a
// member. The loop itself is left in whatever lifecycle state it holds; use
// Drain/Stop on the loop first for a graceful exit. Remove must be called
// from the tick goroutine (no round may be in flight).
func (c *Coordinator) Remove(name string) bool {
	for i := range c.members {
		if c.members[i].loop.Name == name {
			c.members = append(c.members[:i], c.members[i+1:]...)
			delete(c.names, name)
			return true
		}
	}
	return false
}

// Len reports how many loops are registered.
func (c *Coordinator) Len() int { return len(c.members) }

// Loops returns the registered loops in registration (execute) order.
func (c *Coordinator) Loops() []*core.Loop {
	out := make([]*core.Loop, len(c.members))
	for i := range c.members {
		out[i] = c.members[i].loop
	}
	return out
}

// Metrics returns a snapshot of the coordinator's counters.
func (c *Coordinator) Metrics() Metrics { return c.metrics }

// Tick runs one coordinated round at virtual time now: concurrent plan
// halves, round barrier, arbitration, then serial execute halves in
// registration order.
func (c *Coordinator) Tick(now time.Duration) {
	c.pruneStopped()
	n := len(c.members)
	if n == 0 {
		return
	}
	if cap(c.plans) < n {
		c.plans = make([]*core.PlannedTick, n)
	}
	plans := c.plans[:n]
	c.planRound(now, plans)

	// Round barrier passed: everything below is serial and deterministic.
	conflicts := arbitrate(c.members, plans)
	planned, arbitrated := 0, 0
	for _, pt := range plans {
		planned += len(pt.Actions())
	}
	for _, cf := range conflicts {
		arbitrated += len(cf.Losers)
	}
	remote := c.arbitrateExternal(now, plans)
	for i := range c.members {
		c.members[i].loop.ExecutePlanned(plans[i])
		plans[i] = nil
	}
	c.metrics.Rounds++
	c.metrics.Planned += planned
	c.metrics.Arbitrated += arbitrated + remote
	c.metrics.Conflicts += len(conflicts)
	c.metrics.Remote += remote

	if c.bus != nil {
		envs := make([]bus.Envelope, 0, len(conflicts)+1)
		for _, cf := range conflicts {
			envs = append(envs, bus.Envelope{Topic: TopicConflict, Time: now, Source: c.source, Payload: cf})
		}
		envs = append(envs, bus.Envelope{Topic: TopicRound, Time: now, Source: c.source, Payload: RoundSummary{
			Round: c.metrics.Rounds, Loops: n, Planned: planned, Arbitrated: arbitrated + remote,
			Conflicts: len(conflicts), Remote: remote,
		}})
		c.bus.PublishBatch(envs)
	}
}

// arbitrateExternal runs the cross-node arbitration hook over the round's
// surviving actions and marks denied ones lost. It returns how many actions
// were denied; with no hook, no actions, or a malformed mask it denies none.
func (c *Coordinator) arbitrateExternal(now time.Duration, plans []*core.PlannedTick) int {
	if c.external == nil {
		return 0
	}
	c.digests = c.digests[:0]
	c.digRefs = c.digRefs[:0]
	for mi, pt := range plans {
		for ai, act := range pt.Actions() {
			if act.Subject == "" || pt.Arbitrated(ai) {
				continue
			}
			c.digests = append(c.digests, ActionDigest{
				Loop: c.members[mi].loop.Name, Kind: act.Kind, Subject: act.Subject,
				Priority: c.members[mi].priority, Amount: act.Amount, Confidence: act.Confidence,
			})
			c.digRefs = append(c.digRefs, digestRef{mi: mi, ai: ai})
		}
	}
	if len(c.digests) == 0 {
		return 0
	}
	deny := c.external(now, c.digests)
	if len(deny) != len(c.digests) {
		return 0 // a malformed verdict fails open: availability over suppression
	}
	denied := 0
	for i, d := range deny {
		if !d {
			continue
		}
		ref := c.digRefs[i]
		plans[ref.mi].Arbitrate(ref.ai, fmt.Sprintf(
			"lost %s to cross-node arbitration", c.digests[i].Subject))
		denied++
	}
	return denied
}

// pruneStopped honors the lifecycle at the round boundary: draining members
// complete their drain (no round is in flight here) and stopped members are
// unregistered, so a drained loop leaves the fleet within one round.
func (c *Coordinator) pruneStopped() {
	keep := c.members[:0]
	for i := range c.members {
		l := c.members[i].loop
		if l.State() == core.StateDraining {
			l.FinishDrain()
		}
		if l.State() == core.StateStopped {
			delete(c.names, l.Name)
			continue
		}
		keep = append(keep, c.members[i])
	}
	if len(keep) < len(c.members) {
		for i := len(keep); i < len(c.members); i++ {
			c.members[i] = member{}
		}
		c.members = keep
	}
}

// planRound fills plans[i] with members[i]'s PlanTick, fanning out over the
// worker pool; members whose cadence gates them out of this round get a nil
// plan. Each loop is planned by exactly one worker; the shared substrates
// the plan phases read (tsdb, knowledge, scheduler state) must be safe for
// concurrent readers, which this repository's are.
func (c *Coordinator) planRound(now time.Duration, plans []*core.PlannedTick) {
	n := len(plans)
	// Advance every member's cadence counter serially; a member is due this
	// round iff its counter wrapped to zero.
	for i := range c.members {
		plans[i] = nil
		m := &c.members[i]
		if m.n++; m.n >= m.every {
			m.n = 0
		}
	}
	workers := c.workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := range c.members {
			if c.members[i].n == 0 {
				plans[i] = c.members[i].loop.PlanTick(now)
			}
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if c.members[i].n == 0 {
					plans[i] = c.members[i].loop.PlanTick(now)
				}
			}
		}()
	}
	wg.Wait()
}

// RunEvery schedules the fleet to tick on clock every period until stop
// returns true (stop may be nil for "run forever"). It mirrors
// core.Loop.RunEvery so converting a loop to a fleet is a drop-in change.
func (c *Coordinator) RunEvery(clock sim.Clock, period time.Duration, stop func() bool) {
	sim.TickEvery(clock, period, stop, c.Tick)
}
