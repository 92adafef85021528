package cluster

import (
	"sort"
	"sync"
	"time"
)

// Directory is the coordinator's member table: who has joined, when each
// member last renewed its lease, and each member's last-reported load. Time
// is the caller's wall clock, passed in explicitly so tests control it.
//
// Leases have two tiers, distinguishing "worker slow" from "worker dead":
// a member silent past the TTL turns suspect — still in the ring, loops
// untouched, just flagged — and only a member silent past TTL+grace
// expires and has its loops failed over. A heartbeat received while
// suspect revives the member in place, with no re-Hello and no ring churn:
// the 1-beat blip (GC pause, dropped frame, congested link) costs nothing.
type Directory struct {
	mu      sync.Mutex
	ttl     time.Duration
	grace   time.Duration
	members map[string]*memberEntry
}

// Member lease states.
const (
	stateAlive = iota
	stateSuspect
	stateExpired
)

type memberEntry struct {
	id       string
	lastBeat time.Time
	state    int
	hb       Heartbeat
}

// DefaultLeaseTTL is the lease window: a worker that has not been heard
// from for this long is suspect; one silent past TTL+grace is declared
// dead and its loops fail over.
const DefaultLeaseTTL = 5 * time.Second

// NewDirectory returns an empty directory; ttl <= 0 selects
// DefaultLeaseTTL. grace == 0 selects one extra lease window (grace =
// ttl); a negative grace disables the suspect tier, restoring the single
// TTL cliff.
func NewDirectory(ttl, grace time.Duration) *Directory {
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	if grace == 0 {
		grace = ttl
	}
	if grace < 0 {
		grace = 0
	}
	return &Directory{ttl: ttl, grace: grace, members: make(map[string]*memberEntry)}
}

// Hello registers (or revives) a member and reports whether it was not
// previously alive — i.e. whether the caller should add it to the ring.
func (d *Directory) Hello(id string, now time.Time) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	e := d.members[id]
	if e == nil {
		e = &memberEntry{id: id}
		d.members[id] = e
	}
	wasDead := e.state == stateExpired || e.lastBeat.IsZero()
	e.lastBeat = now
	e.state = stateAlive
	return wasDead
}

// Beat renews a member's lease with its reported stats. A suspect member
// is revived in place — resuming within the grace window re-acquires the
// lease without re-Hello churn. An unknown or expired member returns false:
// the worker must re-Hello (heartbeats from the dead are not resurrections;
// its loops may already be replaced).
func (d *Directory) Beat(hb Heartbeat, now time.Time) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	e := d.members[hb.Worker]
	if e == nil || e.state == stateExpired {
		return false
	}
	e.lastBeat = now
	e.state = stateAlive
	e.hb = hb
	return true
}

// Sweep advances lease tiers at wall time now: alive members lapsed past
// the TTL turn suspect, suspect members lapsed past TTL+grace expire. Both
// transitions are reported once, in sorted order. Expired members stay in
// the directory (visible as "expired" in Members) until the same worker
// re-Hellos.
func (d *Directory) Sweep(now time.Time) (suspects, expired []string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for id, e := range d.members {
		lapse := now.Sub(e.lastBeat)
		switch e.state {
		case stateAlive:
			if lapse > d.ttl+d.grace {
				e.state = stateExpired
				expired = append(expired, id)
			} else if lapse > d.ttl {
				e.state = stateSuspect
				suspects = append(suspects, id)
			}
		case stateSuspect:
			if lapse > d.ttl+d.grace {
				e.state = stateExpired
				expired = append(expired, id)
			}
		}
	}
	sort.Strings(suspects)
	sort.Strings(expired)
	return suspects, expired
}

// Alive returns the non-expired member IDs (alive and suspect) in sorted
// order — the set still owning ring positions.
func (d *Directory) Alive() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []string
	for id, e := range d.members {
		if e.state != stateExpired {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// IsAlive reports whether id is a current (non-expired) member.
func (d *Directory) IsAlive(id string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	e := d.members[id]
	return e != nil && e.state != stateExpired
}

// snapshot returns every member's entry for reporting, sorted by ID.
func (d *Directory) snapshot(now time.Time) []memberView {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]memberView, 0, len(d.members))
	for _, e := range d.members {
		out = append(out, memberView{
			id: e.id, state: e.state, sinceBeat: now.Sub(e.lastBeat), hb: e.hb,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

type memberView struct {
	id        string
	state     int
	sinceBeat time.Duration
	hb        Heartbeat
}

// stateName renders a lease tier for wire reporting.
func stateName(state int) string {
	switch state {
	case stateSuspect:
		return "suspect"
	case stateExpired:
		return "expired"
	}
	return "alive"
}
