package cluster

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"autoloop/internal/bus"
	"autoloop/internal/control"
	"autoloop/internal/fleet"
	"autoloop/internal/tsdb"
)

// Worker-side defaults.
const (
	// DefaultHeartbeat is the lease-renewal period; keep it well under the
	// coordinator's lease TTL.
	DefaultHeartbeat = 1 * time.Second
	// DefaultHelloEvery re-announces membership every N heartbeats, so a
	// restarted coordinator (empty directory) re-learns its workers within
	// N×heartbeat without any negative acknowledgement on the wire.
	DefaultHelloEvery = 5
	// DefaultArbTimeout bounds the digest/verdict round trip per fleet
	// round; on timeout the round proceeds un-arbitrated (fail open), so a
	// slow or absent coordinator degrades to single-node behavior instead
	// of stalling the loops.
	DefaultArbTimeout = 250 * time.Millisecond
	// DefaultDegradeAfter is how many consecutive arbitration timeouts the
	// agent tolerates before declaring the coordinator unreachable and
	// entering degraded standalone mode.
	DefaultDegradeAfter = 3
	// degradedProbeEvery: while degraded, every Nth fleet round still
	// submits its digest and waits the arbitration timeout, probing for a
	// healed link; the rounds between skip the wait entirely.
	degradedProbeEvery = 8
	// digestBufferCap bounds the degraded-mode digest ring; beyond it the
	// oldest buffered digest is dropped (and counted).
	digestBufferCap = 256
)

// AgentOptions configures a worker Agent.
type AgentOptions struct {
	// ID names the worker; it must be unique in the cluster.
	ID string
	// Heartbeat is the lease-renewal period (default DefaultHeartbeat).
	Heartbeat time.Duration
	// HelloEvery re-Hellos every N heartbeats (default DefaultHelloEvery).
	HelloEvery int
	// ArbTimeout bounds the cross-node arbitration round trip (default
	// DefaultArbTimeout). Zero selects the default; negative disables the
	// digest hook entirely (rounds stay byte-identical to single-node).
	ArbTimeout time.Duration
	// Stats, when set, fills the telemetry fields of each heartbeat.
	Stats func() (series int, samples uint64, rounds int)
	// DegradeAfter is the consecutive-arb-timeout threshold for entering
	// degraded mode (default DefaultDegradeAfter); negative disables
	// timeout-driven degradation (SetLinkState still works).
	DegradeAfter int
	// Logf, when non-nil, receives one line per degraded-mode transition.
	Logf func(format string, args ...any)
}

// AgentMetrics counts the agent's resilience events. All fields are
// monotonic totals.
type AgentMetrics struct {
	// DegradedEntries is how many times the agent entered degraded mode.
	DegradedEntries uint64
	// DegradedRounds is how many fleet rounds ticked while degraded —
	// rounds that ran under local fail-open arbitration with no verdict
	// round trip.
	DegradedRounds uint64
	// DigestsBuffered is how many digests were journaled to the degraded
	// ring instead of being arbitrated.
	DigestsBuffered uint64
	// DigestsDropped is how many buffered digests the bounded ring evicted.
	DigestsDropped uint64
	// DigestsBackfilled is how many buffered digests were re-delivered to
	// the coordinator after the link healed.
	DigestsBackfilled uint64
}

// Agent is the worker side of the cluster: it registers with the
// coordinator over the bus bridge, renews its lease, spawns assigned specs
// into the local control.Service, answers fanned-out control and tsdb
// requests, and submits fleet-round digests for cross-node arbitration.
type Agent struct {
	opts AgentOptions
	b    *bus.Bus
	ctl  *control.Service
	db   *tsdb.Service

	mu sync.Mutex
	// primary names each assigned group's primary loop: only an index, as
	// ctl alone records which of those loops the worker still runs.
	primary map[string]string
	seq     uint64 // heartbeat sequence
	digSeq  uint64 // digest sequence
	waits   map[uint64]chan Verdict

	// Degraded standalone mode: entered after DegradeAfter consecutive
	// arbitration timeouts (or an explicit SetLinkState(false) from the
	// link maintainer), exited on any coordinator contact. While degraded,
	// rounds skip the verdict wait and digests buffer locally.
	degraded  bool
	arbMisses int      // consecutive arbitration timeouts
	degRounds int      // rounds ticked while degraded (probe cadence)
	buffered  []Digest // bounded degraded-mode digest ring
	metrics   AgentMetrics

	cancels  []func()
	stop     chan struct{}
	stopOnce sync.Once
	done     sync.WaitGroup
}

// NewAgent attaches a worker agent to the local bus b, whose bridge client
// must export WorkerExportPattern to the coordinator (the caller dials; the
// agent only speaks topics). ctl serves assignments and fanned control ops;
// db, when non-nil, answers fanned tsdb queries. The agent installs the
// cross-node arbitration hook on ctl's fleet coordinator unless ArbTimeout
// is negative. Call Close to detach.
func NewAgent(b *bus.Bus, ctl *control.Service, db *tsdb.Service, opts AgentOptions) (*Agent, error) {
	if opts.ID == "" {
		return nil, fmt.Errorf("cluster: agent needs an ID")
	}
	if opts.Heartbeat <= 0 {
		opts.Heartbeat = DefaultHeartbeat
	}
	if opts.HelloEvery <= 0 {
		opts.HelloEvery = DefaultHelloEvery
	}
	if opts.ArbTimeout == 0 {
		opts.ArbTimeout = DefaultArbTimeout
	}
	if opts.DegradeAfter == 0 {
		opts.DegradeAfter = DefaultDegradeAfter
	}
	a := &Agent{
		opts:    opts,
		b:       b,
		ctl:     ctl,
		db:      db,
		primary: make(map[string]string),
		waits:   make(map[uint64]chan Verdict),
		stop:    make(chan struct{}),
	}
	a.cancels = append(a.cancels,
		b.Subscribe(TopicAssign, a.handleAssign),
		b.Subscribe(TopicRevoke, a.handleRevoke),
		b.Subscribe(TopicFanout, a.handleFanout),
		b.Subscribe(TopicVerdict, a.handleVerdict),
	)
	if opts.ArbTimeout > 0 {
		ctl.Coordinator().SetExternalArbiter(a.arbitrate)
	}
	a.sendHello()
	a.done.Add(1)
	go a.heartbeatLoop()
	return a, nil
}

// Close stops the heartbeat loop and detaches the agent from the bus. The
// control service keeps running its loops; only cluster participation ends.
// Close is idempotent.
func (a *Agent) Close() {
	a.stopOnce.Do(func() {
		close(a.stop)
		a.done.Wait()
		for _, cancel := range a.cancels {
			cancel()
		}
		a.cancels = nil
		a.ctl.Coordinator().SetExternalArbiter(nil)
	})
}

// Metrics returns a snapshot of the agent's resilience counters.
func (a *Agent) Metrics() AgentMetrics {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.metrics
}

// SetLinkState feeds the agent explicit link-state transitions — the hook a
// redialing bus.Client's OnState calls. Down enters degraded mode immediately
// (no need to burn DegradeAfter arbitration timeouts first); up exits it,
// re-delivering buffered digests and re-announcing membership.
func (a *Agent) SetLinkState(up bool) {
	if up {
		a.noteContact()
		return
	}
	a.mu.Lock()
	a.enterDegradedLocked("link down")
	a.mu.Unlock()
}

func (a *Agent) logf(format string, args ...any) {
	if a.opts.Logf != nil {
		a.opts.Logf(format, args...)
	}
}

// enterDegradedLocked flips into degraded mode (idempotent).
func (a *Agent) enterDegradedLocked(reason string) {
	if a.degraded {
		return
	}
	a.degraded = true
	a.degRounds = 0
	a.metrics.DegradedEntries++
	a.logf("cluster: worker %s entering degraded standalone mode (%s); loops keep ticking fail-open", a.opts.ID, reason)
}

// noteContact records proof the coordinator can reach us (an assign, revoke,
// fanout, or verdict arrived, or the link maintainer reports the link up) —
// it resets the arbitration-miss streak and, if degraded, rejoins: buffered
// digests re-deliver flagged Backfill and the agent re-Hellos.
func (a *Agent) noteContact() {
	a.mu.Lock()
	a.arbMisses = 0
	if !a.degraded {
		a.mu.Unlock()
		return
	}
	flush := a.exitDegradedLocked()
	a.mu.Unlock()
	a.deliverBackfill(flush)
}

// exitDegradedLocked clears degraded state and detaches the buffered
// digests for the caller to deliver outside the lock.
func (a *Agent) exitDegradedLocked() []Digest {
	a.degraded = false
	a.arbMisses = 0
	flush := a.buffered
	a.buffered = nil
	a.metrics.DigestsBackfilled += uint64(len(flush))
	a.logf("cluster: worker %s rejoined the coordinator; backfilling %d buffered digests", a.opts.ID, len(flush))
	return flush
}

// deliverBackfill re-delivers buffered digests flagged Backfill — the
// coordinator records them for observability but owes no verdicts (the
// actions already ran under local fail-open arbitration) — and re-Hellos so
// the coordinator reconciles placement with what the worker actually holds.
func (a *Agent) deliverBackfill(flush []Digest) {
	for i := range flush {
		flush[i].Backfill = true
		a.publish(TopicDigest, flush[i])
	}
	a.sendHello()
}

// bufferLocked journals one digest in the bounded degraded-mode ring.
func (a *Agent) bufferLocked(d Digest) {
	if len(a.buffered) >= digestBufferCap {
		a.buffered = a.buffered[1:]
		a.metrics.DigestsDropped++
	}
	a.buffered = append(a.buffered, d)
	a.metrics.DigestsBuffered++
}

// Held returns, sorted, the assigned groups whose loops the control service
// still runs.
func (a *Agent) Held() []string {
	running := make(map[string]bool)
	for _, st := range a.ctl.Handle(control.Request{Op: control.OpList}).Loops {
		running[st.Group] = true
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	var out []string
	for g, name := range a.primary {
		if running[name] {
			out = append(out, g)
		}
	}
	sort.Strings(out)
	return out
}

// get asks the control service for group's loops. The reply is OK only
// while the service runs them: not after a remove or a completed drain,
// and not for a group never spawned here.
func (a *Agent) get(group string) control.Reply {
	a.mu.Lock()
	name, ok := a.primary[group]
	a.mu.Unlock()
	if !ok {
		return control.Reply{Op: control.OpGet, Error: "group not spawned here"}
	}
	return a.ctl.Handle(control.Request{Op: control.OpGet, Loop: name})
}

// remove tears group's loops down and forgets the group. Like assigns,
// removes are idempotent: removing a group the service no longer runs
// succeeds.
func (a *Agent) remove(group string) control.Reply {
	r := a.get(group)
	a.mu.Lock()
	delete(a.primary, group)
	a.mu.Unlock()
	if !r.OK {
		return control.Reply{Op: control.OpRemove, OK: true}
	}
	return a.ctl.Handle(control.Request{Op: control.OpRemove, Loop: r.Loop.Name})
}

func (a *Agent) publish(topic string, payload interface{}) {
	a.b.Publish(bus.Envelope{Topic: topic, Source: a.opts.ID, Payload: payload})
}

func (a *Agent) sendHello() {
	a.publish(TopicHello, Hello{Worker: a.opts.ID, Groups: a.Held()})
}

func (a *Agent) heartbeatLoop() {
	defer a.done.Done()
	t := time.NewTicker(a.opts.Heartbeat)
	defer t.Stop()
	beats := 0
	for {
		select {
		case <-a.stop:
			return
		case <-t.C:
		}
		beats++
		if beats%a.opts.HelloEvery == 0 {
			a.sendHello()
		}
		hb := Heartbeat{Worker: a.opts.ID, Groups: len(a.Held())}
		a.mu.Lock()
		a.seq++
		hb.Seq = a.seq
		a.mu.Unlock()
		if a.opts.Stats != nil {
			hb.Series, hb.Samples, hb.Rounds = a.opts.Stats()
		}
		a.publish(TopicHeartbeat, hb)
	}
}

// handleAssign spawns one assigned spec. Assigns are idempotent: re-assigning
// a group whose loops still run acks OK with their names (the coordinator
// re-sends unacked assigns, and a rebalance may re-affirm ownership).
func (a *Agent) handleAssign(env bus.Envelope) {
	var as Assign
	if err := bus.DecodePayload(env, &as); err != nil || as.Worker != a.opts.ID {
		return
	}
	a.noteContact()
	ack := Ack{Worker: a.opts.ID, ID: as.ID, Group: as.Group}
	if r := a.get(as.Group); r.OK {
		ack.OK = true
		for _, st := range r.Loops {
			ack.Loops = append(ack.Loops, st.Name)
		}
		a.publish(TopicAck, ack)
		return
	}
	sp, err := a.ctl.Spawn(as.Spec)
	if err != nil {
		ack.Error = err.Error()
		a.publish(TopicAck, ack)
		return
	}
	for _, bl := range sp.Loops {
		ack.Loops = append(ack.Loops, bl.Loop.Name)
	}
	ack.OK = true
	a.mu.Lock()
	a.primary[as.Group] = sp.Loop().Name
	a.mu.Unlock()
	a.publish(TopicAck, ack)
}

// handleRevoke removes a held group (rebalance moved it, or the operator
// removed the spec).
func (a *Agent) handleRevoke(env bus.Envelope) {
	var rv Revoke
	if err := bus.DecodePayload(env, &rv); err != nil || rv.Worker != a.opts.ID {
		return
	}
	a.noteContact()
	r := a.remove(rv.Group)
	a.publish(TopicAck, Ack{Worker: a.opts.ID, ID: rv.ID, Group: rv.Group, OK: r.OK, Error: r.Error})
}

// handleFanout answers one scattered request from the local services.
func (a *Agent) handleFanout(env bus.Envelope) {
	var f Fanout
	if err := bus.DecodePayload(env, &f); err != nil || f.Worker != a.opts.ID {
		return
	}
	a.noteContact()
	reply := FanReply{Worker: a.opts.ID, ID: f.ID}
	switch {
	case f.Control != nil && f.Control.Op == control.OpRemove:
		// A routed remove names the group (see Coordinator.routeLoopOp).
		r := a.remove(f.Control.Loop)
		r.ID = f.Control.ID
		reply.Control = &r
	case f.Control != nil:
		r := a.ctl.Handle(*f.Control)
		reply.Control = &r
	case f.ApproveVerdict != nil:
		r := a.ctl.Verdict(true, *f.ApproveVerdict)
		reply.Control = &r
	case f.DenyVerdict != nil:
		r := a.ctl.Verdict(false, *f.DenyVerdict)
		reply.Control = &r
	case f.Query != nil:
		if a.db == nil {
			reply.Err = "worker has no tsdb service"
		} else {
			r := a.db.Answer(*f.Query)
			reply.Query = &r
		}
	default:
		reply.Err = "empty fanout"
	}
	a.publish(TopicReply, reply)
}

// arbitrate is the fleet coordinator's external-arbiter hook: it submits the
// round's digests and waits for the coordinator's verdict, failing open on
// timeout. It runs on the worker's tick goroutine; the verdict arrives on
// the bridge client's read goroutine.
//
// Degraded mode keeps the loops ticking when the coordinator is
// unreachable: after DegradeAfter consecutive timeouts the agent stops
// paying the arbitration timeout every round — it journals each round's
// digest in a bounded local ring and fails open immediately, probing with a
// real digest/verdict round trip every degradedProbeEvery rounds. Any
// coordinator contact (a verdict, assign, revoke, or fanout) rejoins:
// buffered digests re-deliver flagged Backfill and the agent re-Hellos.
func (a *Agent) arbitrate(now time.Duration, digests []fleet.ActionDigest) []bool {
	a.mu.Lock()
	a.digSeq++
	seq := a.digSeq
	if a.degraded {
		a.degRounds++
		a.metrics.DegradedRounds++
		if a.degRounds%degradedProbeEvery != 0 {
			// Non-probe degraded round: journal and fail open without
			// waiting — the partition must not slow the loops down.
			a.bufferLocked(digestFromFleet(a.opts.ID, seq, digests))
			a.mu.Unlock()
			return nil
		}
	}
	ch := make(chan Verdict, 1)
	a.waits[seq] = ch
	a.mu.Unlock()
	defer func() {
		a.mu.Lock()
		delete(a.waits, seq)
		a.mu.Unlock()
	}()
	a.publish(TopicDigest, digestFromFleet(a.opts.ID, seq, digests))
	select {
	case v := <-ch:
		// handleVerdict counts the contact (and rejoins if degraded) after
		// handing us the verdict.
		if len(v.Deny) != len(digests) {
			return nil // malformed verdict: fail open
		}
		return v.Deny
	case <-time.After(a.opts.ArbTimeout):
		a.mu.Lock()
		if a.degraded {
			// Failed probe: the round's digest still matters — journal it.
			a.bufferLocked(digestFromFleet(a.opts.ID, seq, digests))
		} else if a.opts.DegradeAfter > 0 {
			a.arbMisses++
			if a.arbMisses >= a.opts.DegradeAfter {
				a.enterDegradedLocked(fmt.Sprintf("%d consecutive arbitration timeouts", a.arbMisses))
				// This round's digest may never have arrived; journal it
				// so the backfill covers the transition round too.
				a.bufferLocked(digestFromFleet(a.opts.ID, seq, digests))
			}
		}
		a.mu.Unlock()
		return nil
	case <-a.stop:
		return nil
	}
}

// handleVerdict routes a coordinator verdict to the round waiting on it,
// then notes the contact. That order matters: a rejoin re-Hellos, which
// reads the control service and so waits for the round to finish.
func (a *Agent) handleVerdict(env bus.Envelope) {
	var v Verdict
	if err := bus.DecodePayload(env, &v); err != nil || v.Worker != a.opts.ID {
		return
	}
	a.mu.Lock()
	ch := a.waits[v.Seq]
	a.mu.Unlock()
	if ch != nil {
		select {
		case ch <- v:
		default:
		}
	}
	a.noteContact()
}
