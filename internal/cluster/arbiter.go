package cluster

import (
	"fmt"
	"sync"
	"time"

	"autoloop/internal/fleet"
)

// Arbiter resolves cross-node conflicts: loops on different workers acting
// on the same shared subject (a facility plant setpoint, a parallel-fs
// stripe policy). Worker rounds are not synchronized across processes, so
// instead of a round barrier the arbiter keeps a subject-grant table: when a
// digest's action is granted, the (worker, loop, kind, priority) grant
// holds the subject for a wall-clock window, and a later action from a
// different worker that yields to the holder by fleet.Yields — the rule
// every worker's own fleet applies — is denied. A same-worker action is
// never denied here: the worker's own fleet already resolved local
// conflicts.
type Arbiter struct {
	mu     sync.Mutex
	window time.Duration
	grants map[string]grant // by subject

	denied uint64
}

type grant struct {
	worker   string
	loop     string
	kind     string
	priority int
	until    time.Time
}

// DefaultArbWindow is the grant window: a granted action holds its subject
// against conflicting cross-node actions for this long.
const DefaultArbWindow = 2 * time.Second

// NewArbiter returns an arbiter; window <= 0 selects DefaultArbWindow.
func NewArbiter(window time.Duration) *Arbiter {
	if window <= 0 {
		window = DefaultArbWindow
	}
	return &Arbiter{window: window, grants: make(map[string]grant)}
}

// Denied reports how many digest actions have been denied so far.
func (a *Arbiter) Denied() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.denied
}

// Decide arbitrates one worker digest at wall time now, returning the
// verdict to send back. Granted actions take (or renew) their subject's
// grant; denied ones are annotated with the holder they lost to.
func (a *Arbiter) Decide(d Digest, now time.Time) Verdict {
	v := Verdict{Worker: d.Worker, Seq: d.Seq}
	if len(d.Actions) == 0 {
		return v
	}
	v.Deny = make([]bool, len(d.Actions))
	v.Reasons = make([]string, len(d.Actions))
	a.mu.Lock()
	defer a.mu.Unlock()
	for i, act := range d.Actions {
		if act.Subject == "" {
			continue
		}
		g, held := a.grants[act.Subject]
		if held && now.After(g.until) {
			held = false
		}
		if held && g.worker != d.Worker && fleet.Yields(act.Kind, act.Priority, g.kind, g.priority) {
			v.Deny[i] = true
			v.Reasons[i] = fmt.Sprintf(
				"subject %s held by %s/%s/%s (priority %d vs %d)",
				act.Subject, g.worker, g.loop, g.kind, act.Priority, g.priority)
			a.denied++
			continue
		}
		a.grants[act.Subject] = grant{
			worker: d.Worker, loop: act.Loop, kind: act.Kind,
			priority: act.Priority, until: now.Add(a.window),
		}
	}
	return v
}

// Forget drops every grant held by a worker (called when its lease expires,
// so a dead worker cannot hold subjects against the living).
func (a *Arbiter) Forget(worker string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for subject, g := range a.grants {
		if g.worker == worker {
			delete(a.grants, subject)
		}
	}
}

// digestFromFleet adapts a worker fleet's digest slice to the wire form.
func digestFromFleet(worker string, seq uint64, ds []fleet.ActionDigest) Digest {
	return Digest{Worker: worker, Seq: seq, Actions: ds}
}
