package control

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"autoloop/internal/bus"
	"autoloop/internal/core"
	"autoloop/internal/fleet"
)

// Service serves the control.v1 wire API over a bus and owns the runtime
// loop set: a registry to spawn from, an environment to spawn into, a fleet
// coordinator that ticks the managed loops, and the pending-approval queue
// for human-in-the-loop actions.
//
// Threading: the Service is the coordinator's driver — attach it to the
// telemetry pipeline (pipe.Drive(svc, n)) or call Tick from the simulation
// thread. Wire requests may arrive on any goroutine (the TCP bridge's read
// loops); ops that touch loop or fleet state synchronize with Tick through
// the service mutex, and approval verdicts are queued and applied at the
// next round so action execution always happens on the tick goroutine.
// Subscribers of control.v1 topics must not publish new control requests
// synchronously from their handlers.
type Service struct {
	reg    *Registry
	env    *Env
	coord  *fleet.Coordinator
	source string
	base   time.Duration

	// mu guards the managed set, the coordinator, and every loop mutation;
	// Tick holds it for the whole round.
	mu      sync.Mutex
	managed map[string]*managedGroup // keyed by group (primary loop) name
	byLoop  map[string]*managedGroup // every member loop name -> its group
	now     time.Duration

	// qmu guards the approval queue and the verdict inbox. Lock order:
	// mu before qmu, never the reverse.
	qmu      sync.Mutex
	seq      uint64
	pending  map[uint64]*pendingEntry
	order    []uint64
	verdicts []queuedVerdict

	bus     *bus.Bus
	cancels []func()
}

// managedGroup is one spawned spec: its loops (primary first), resolved
// priority/period, and the normalized spec reported by get.
type managedGroup struct {
	caseName string
	spec     LoopSpec
	loops    []*core.Loop
	priority int
	period   time.Duration
	// guards records the GuardSpecs applied by set-guard ops since spawn,
	// so snapshots can re-apply them on recovery (the built core.Guardrail
	// instances themselves are not serializable).
	guards []GuardSpec
}

// pendingEntry is one queued approval with its timeout policy.
type pendingEntry struct {
	seq  uint64
	d    core.DeferredAction
	info PendingInfo
	// contingencyAt, when positive, executes the action at that virtual
	// time (the loop's ContingencyAfter policy).
	contingencyAt time.Duration
}

type queuedVerdict struct {
	seq     uint64
	approve bool
	reason  string
}

// NewService builds a control service around a registry, an environment,
// and the fleet coordinator that will tick the managed loops. base is the
// virtual-time period between Tick calls (the control round cadence); loop
// spec periods are rounded to whole multiples of it (base <= 0 ticks every
// loop every round).
func NewService(reg *Registry, env *Env, coord *fleet.Coordinator, base time.Duration) *Service {
	if reg == nil || env == nil || coord == nil {
		panic("control: NewService requires registry, env, and coordinator")
	}
	return &Service{
		reg: reg, env: env, coord: coord, base: base,
		managed: make(map[string]*managedGroup),
		byLoop:  make(map[string]*managedGroup),
		pending: make(map[uint64]*pendingEntry),
	}
}

// Coordinator exposes the fleet coordinator (arbitration rules, metrics).
func (s *Service) Coordinator() *fleet.Coordinator { return s.coord }

// Attach subscribes the service to the control.v1 request and verdict
// topics on b and publishes its replies, pending announcements, and
// resolutions there. source tags outbound envelopes. Returns s for
// chaining.
func (s *Service) Attach(b *bus.Bus, source string) *Service {
	s.bus = b
	s.source = source
	s.cancels = append(s.cancels,
		b.Subscribe(TopicRequest, s.handleRequest),
		b.Subscribe(TopicApprove, func(env bus.Envelope) { s.handleVerdict(env, true) }),
		b.Subscribe(TopicDeny, func(env bus.Envelope) { s.handleVerdict(env, false) }),
	)
	return s
}

// Close unsubscribes the service from its bus topics.
func (s *Service) Close() {
	for _, c := range s.cancels {
		c()
	}
	s.cancels = nil
}

// publish sends one envelope if a bus is attached.
func (s *Service) publish(topic string, now time.Duration, payload interface{}) {
	if s.bus == nil {
		return
	}
	s.bus.Publish(bus.Envelope{Topic: topic, Time: now, Source: s.source, Payload: payload})
}

// Spawn instantiates spec, wires the loops into the approval surface, and
// registers them with the coordinator. It is the programmatic form of the
// spawn op.
func (s *Service) Spawn(spec LoopSpec) (*Spawned, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.spawnLocked(spec)
}

func (s *Service) spawnLocked(spec LoopSpec) (*Spawned, error) {
	sp, err := s.reg.Spawn(s.env, spec)
	if err != nil {
		return nil, err
	}
	for _, bl := range sp.Loops {
		if _, dup := s.byLoop[bl.Loop.Name]; dup {
			return nil, fmt.Errorf("control: loop %q already managed", bl.Loop.Name)
		}
	}
	for _, have := range s.coord.Loops() {
		for _, bl := range sp.Loops {
			if have.Name == bl.Loop.Name {
				return nil, fmt.Errorf("control: loop %q already in the fleet", bl.Loop.Name)
			}
		}
	}
	every := 1
	if s.base > 0 && sp.Period > 0 {
		if every = int((sp.Period + s.base/2) / s.base); every < 1 {
			every = 1
		}
	}
	g := &managedGroup{
		caseName: spec.Case, spec: sp.Spec, priority: sp.Priority, period: sp.Period,
	}
	for _, bl := range sp.Loops {
		bl.Loop.Approvals = s
		g.loops = append(g.loops, bl.Loop)
		s.coord.AddEvery(bl.Loop, sp.Priority, every*bl.EveryMul)
		s.byLoop[bl.Loop.Name] = g
	}
	s.managed[g.loops[0].Name] = g
	return sp, nil
}

// Tick runs one control round at virtual time now: queued verdicts and
// expired approval timeouts are applied, stale pending actions are swept,
// and the fleet coordinator ticks. It implements telemetry.Ticker so the
// monitoring cadence can drive the control plane.
func (s *Service) Tick(now time.Duration) {
	s.mu.Lock()
	s.now = now
	resolved := s.settleQueue(now)
	s.coord.Tick(now)
	s.pruneStopped()
	s.mu.Unlock()
	for _, r := range resolved {
		s.publish(TopicResolved, now, r)
	}
}

// pruneStopped forgets managed groups whose every loop has stopped (the
// coordinator has already dropped them from its membership).
func (s *Service) pruneStopped() {
	for name, g := range s.managed {
		alive := false
		for _, l := range g.loops {
			if l.State() != core.StateStopped {
				alive = true
				break
			}
		}
		if !alive {
			delete(s.managed, name)
			for _, l := range g.loops {
				delete(s.byLoop, l.Name)
			}
		}
	}
}

// settleQueue applies operator verdicts, approval timeouts, and staleness
// sweeps to the pending queue. Caller holds mu; the returned resolutions
// are published after the round releases it.
func (s *Service) settleQueue(now time.Duration) []Resolution {
	s.qmu.Lock()
	verdicts := s.verdicts
	s.verdicts = nil
	s.qmu.Unlock()

	var out []Resolution
	settle := func(e *pendingEntry, approve bool, outcome, reason string) {
		stale := e.d.Stale()
		executed := e.d.Resolve(now, approve, reason)
		if stale {
			outcome = OutcomeStale
		}
		out = append(out, Resolution{
			Seq: e.seq, Loop: e.d.Loop.Name, Outcome: outcome, Executed: executed, Reason: reason,
		})
		s.dropPending(e.seq)
	}

	for _, v := range verdicts {
		e := s.lookupPending(v.seq)
		if e == nil {
			continue // settled by an earlier verdict or timeout since the ack
		}
		if v.approve {
			settle(e, true, OutcomeApproved, v.reason)
		} else {
			settle(e, false, OutcomeDenied, v.reason)
		}
	}

	// Timeouts and staleness — in queue order.
	s.qmu.Lock()
	snapshot := make([]*pendingEntry, 0, len(s.order))
	for _, seq := range s.order {
		if e := s.pending[seq]; e != nil {
			snapshot = append(snapshot, e)
		}
	}
	s.qmu.Unlock()
	for _, e := range snapshot {
		switch {
		case e.d.Stale():
			settle(e, false, OutcomeStale, "invalidated by lifecycle")
		case e.contingencyAt > 0 && now >= e.contingencyAt:
			settle(e, true, OutcomeContingency, "approval window elapsed")
		}
	}
	return out
}

func (s *Service) lookupPending(seq uint64) *pendingEntry {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	return s.pending[seq]
}

func (s *Service) dropPending(seq uint64) {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	delete(s.pending, seq)
	for i, have := range s.order {
		if have == seq {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
}

// Defer implements core.ApprovalSink: a human-in-the-loop action lands in
// the pending queue, its timeout policy is fixed from the loop's HumanModel,
// and the queue entry is announced on control.v1.pending.
func (s *Service) Defer(d core.DeferredAction) {
	now := d.Decided
	e := &pendingEntry{d: d}
	if after := d.Loop.Human.ContingencyAfter; after > 0 {
		e.contingencyAt = now + after
	}
	s.qmu.Lock()
	s.seq++
	e.seq = s.seq
	e.info = PendingInfo{
		Seq: e.seq, Loop: d.Loop.Name, Decided: Duration(d.Decided),
		Action: wireAction(d.Action), ContingencyAt: Duration(e.contingencyAt),
	}
	s.pending[e.seq] = e
	s.order = append(s.order, e.seq)
	info := e.info
	s.qmu.Unlock()
	s.publish(TopicPending, now, info)
}

// handleVerdict queues one approve/deny and acknowledges it.
func (s *Service) handleVerdict(env bus.Envelope, approve bool) {
	var v Verdict
	if err := bus.DecodePayload(env, &v); err != nil {
		return
	}
	s.reply(s.Verdict(approve, v))
}

// Verdict queues one operator approve/deny verdict and returns the ack
// reply (outcome "queued"; the final fate is published on TopicResolved
// when the next round applies it). It is the programmatic form of an
// approve/deny envelope, exported so in-process embedders — notably the
// HTTP gateway — can settle pending actions without a bus.
func (s *Service) Verdict(approve bool, v Verdict) Reply {
	op := OpDeny
	if approve {
		op = OpApprove
	}
	e := s.lookupPending(v.Seq)
	if e == nil {
		return Reply{ID: v.ID, Op: op, OK: false, Error: fmt.Sprintf("no pending action %d", v.Seq)}
	}
	if v.Loop != "" && v.Loop != e.d.Loop.Name {
		return Reply{ID: v.ID, Op: op, OK: false, Error: fmt.Sprintf(
			"pending action %d belongs to loop %q, not %q", v.Seq, e.d.Loop.Name, v.Loop)}
	}
	s.qmu.Lock()
	s.verdicts = append(s.verdicts, queuedVerdict{seq: v.Seq, approve: approve, reason: v.Reason})
	s.qmu.Unlock()
	return Reply{ID: v.ID, Op: op, OK: true, Resolution: &Resolution{
		Seq: v.Seq, Loop: e.d.Loop.Name, Outcome: OutcomeQueued,
	}}
}

// OpApprove and OpDeny name the verdict pseudo-ops used in acks.
const (
	OpApprove = "approve"
	OpDeny    = "deny"
)

// reply publishes one Reply on TopicReply.
func (s *Service) reply(r Reply) {
	s.publish(TopicReply, s.lastNow(), r)
}

func (s *Service) lastNow() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// handleRequest dispatches one control.v1 request envelope.
func (s *Service) handleRequest(env bus.Envelope) {
	var req Request
	if err := bus.DecodePayload(env, &req); err != nil {
		s.reply(Reply{Op: "?", OK: false, Error: err.Error()})
		return
	}
	s.reply(s.Handle(req))
}

// Handle executes one control request and returns its reply. It is exported
// so in-process embedders can drive the control surface without a bus.
func (s *Service) Handle(req Request) Reply {
	r := Reply{ID: req.ID, Op: req.Op}
	fail := func(format string, args ...interface{}) Reply {
		r.OK = false
		r.Error = fmt.Sprintf(format, args...)
		return r
	}
	switch req.Op {
	case OpList:
		s.mu.Lock()
		r.Loops = s.statusesLocked()
		s.mu.Unlock()
		r.OK = true
	case OpGet:
		s.mu.Lock()
		g := s.byLoop[req.Loop]
		if g == nil {
			s.mu.Unlock()
			return fail("unknown loop %q", req.Loop)
		}
		for _, l := range g.loops {
			st := s.statusLocked(g, l)
			r.Loops = append(r.Loops, st)
			if l.Name == req.Loop || (r.Loop == nil && l == g.loops[0]) {
				cp := st
				r.Loop = &cp
			}
		}
		spec := g.spec
		s.mu.Unlock()
		r.Spec = &spec
		r.OK = true
	case OpCases:
		r.Cases = s.reg.CaseInfos()
		r.OK = true
	case OpSpawn:
		if req.Spec == nil {
			return fail("spawn without spec")
		}
		s.mu.Lock()
		sp, err := s.spawnLocked(*req.Spec)
		if err != nil {
			s.mu.Unlock()
			return fail("%v", err)
		}
		g := s.byLoop[sp.Loop().Name]
		st := s.statusLocked(g, sp.Loop())
		s.mu.Unlock()
		r.Loop = &st
		spec := sp.Spec
		r.Spec = &spec
		r.OK = true
	case OpPause, OpResume, OpDrain, OpRemove:
		s.mu.Lock()
		g := s.byLoop[req.Loop]
		if g == nil {
			s.mu.Unlock()
			return fail("unknown loop %q", req.Loop)
		}
		var err error
		for _, l := range g.loops {
			switch req.Op {
			case OpPause:
				err = l.Pause()
			case OpResume:
				err = l.Resume()
			case OpDrain:
				err = l.Drain()
			case OpRemove:
				_ = l.Stop()
				s.coord.Remove(l.Name)
			}
			if err != nil {
				break
			}
		}
		if req.Op == OpRemove {
			delete(s.managed, g.loops[0].Name)
			for _, l := range g.loops {
				delete(s.byLoop, l.Name)
			}
		}
		st := s.statusLocked(g, g.loops[0])
		s.mu.Unlock()
		if err != nil {
			return fail("%v", err)
		}
		r.Loop = &st
		r.OK = true
	case OpSetMode:
		mode, err := core.ParseMode(req.Mode)
		if err != nil {
			return fail("%v", err)
		}
		s.mu.Lock()
		g := s.byLoop[req.Loop]
		if g == nil {
			s.mu.Unlock()
			return fail("unknown loop %q", req.Loop)
		}
		for _, l := range g.loops {
			l.Mode = mode
		}
		g.spec.Mode = mode.String()
		st := s.statusLocked(g, g.loops[0])
		s.mu.Unlock()
		r.Loop = &st
		r.OK = true
	case OpSetGuard:
		if req.Guard == nil {
			return fail("set-guard without guard")
		}
		make1 := func() (core.Guardrail, error) { return buildGuard(*req.Guard) }
		s.mu.Lock()
		g := s.byLoop[req.Loop]
		if g == nil {
			s.mu.Unlock()
			return fail("unknown loop %q", req.Loop)
		}
		for _, l := range g.loops {
			guard, err := make1() // one stateful guard instance per loop
			if err != nil {
				s.mu.Unlock()
				return fail("%v", err)
			}
			l.Guards = append(l.Guards, guard)
		}
		g.guards = append(g.guards, *req.Guard)
		st := s.statusLocked(g, g.loops[0])
		s.mu.Unlock()
		r.Loop = &st
		r.OK = true
	case OpMembers:
		// A single-process service has no worker directory; answering with
		// an empty list (rather than an error) lets operator tooling probe
		// any deployment with the same request.
		r.OK = true
	case OpPending:
		s.qmu.Lock()
		for _, seq := range s.order {
			if e := s.pending[seq]; e != nil {
				r.Pending = append(r.Pending, e.info)
			}
		}
		s.qmu.Unlock()
		r.OK = true
	default:
		return fail("unknown op %q", req.Op)
	}
	return r
}

// buildGuard constructs one guardrail from its wire spec.
func buildGuard(gs GuardSpec) (core.Guardrail, error) {
	switch gs.Kind {
	case "confidence":
		return core.ConfidenceGate{Min: gs.Min}, nil
	case "rate-limit":
		if gs.Max <= 0 || gs.Window <= 0 {
			return nil, fmt.Errorf("control: rate-limit guard requires positive max and window")
		}
		return core.NewRateLimit(gs.Max, gs.Window.D()), nil
	case "subject-cap":
		if gs.Max <= 0 {
			return nil, fmt.Errorf("control: subject-cap guard requires positive max")
		}
		return core.NewSubjectCap(gs.Action, gs.Max), nil
	case "dry-run":
		return core.DryRun{}, nil
	}
	return nil, fmt.Errorf("control: unknown guard kind %q", gs.Kind)
}

// statusesLocked reports every managed loop, grouped and ordered by group
// name then loop name. Caller holds mu.
func (s *Service) statusesLocked() []LoopStatus {
	groups := make([]string, 0, len(s.managed))
	for name := range s.managed {
		groups = append(groups, name)
	}
	sort.Strings(groups)
	var out []LoopStatus
	for _, name := range groups {
		g := s.managed[name]
		for _, l := range g.loops {
			out = append(out, s.statusLocked(g, l))
		}
	}
	return out
}

// statusLocked builds one loop's status. Caller holds mu.
func (s *Service) statusLocked(g *managedGroup, l *core.Loop) LoopStatus {
	pend := 0
	s.qmu.Lock()
	for _, seq := range s.order {
		if e := s.pending[seq]; e != nil && e.d.Loop == l {
			pend++
		}
	}
	s.qmu.Unlock()
	return LoopStatus{
		Name: l.Name, Case: g.caseName, Group: g.loops[0].Name,
		State: l.State().String(), Mode: l.Mode.String(),
		Priority: g.priority, Period: Duration(g.period),
		Generation: l.Generation(), Guards: len(l.Guards), Pending: pend,
		Metrics: wireMetrics(l.Metrics()),
	}
}
