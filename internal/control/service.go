package control

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
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
// loops); ops that touch loop or fleet state, verdicts included,
// synchronize with Tick through the service mutex, and approval verdicts
// are queued and applied at the next round so action execution always
// happens on the tick goroutine. Pending announcements and applied ops are
// published under that mutex, so subscribers of control.v1 topics must not
// call back into the service synchronously from their handlers.
type Service struct {
	reg    *Registry
	env    *Env
	view   *roundView // the Querier spawned loops read through, and their round memo
	coord  *fleet.Coordinator
	source string
	base   time.Duration

	// mu guards the managed set, the coordinator, and every loop mutation;
	// Tick holds it for the whole round.
	mu      sync.Mutex
	managed map[string]*managedGroup // keyed by group (primary loop) name
	byLoop  map[string]*managedGroup // every member loop name -> its group
	now     time.Duration
	// created holds the spawned loops not yet seen to leave StateCreated;
	// Tick publishes the ones its round started (TopicStarted).
	created []*core.Loop

	// rounds is the coordinator's round count as of the last Tick, kept
	// atomically so goroutines other than the tick goroutine can read it.
	rounds atomic.Int64

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
	// time (its group spec's contingency_after).
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
		reg: reg, env: env, view: newRoundView(env.Querier), coord: coord, base: base,
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
// spawn op. The loops read telemetry through the service's round view, which
// shares their round readings, the case's declared Inputs among them, with
// every other loop that declares the same key from the next round on.
func (s *Service) Spawn(spec LoopSpec) (*Spawned, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.spawnLocked(spec)
}

func (s *Service) spawnLocked(spec LoopSpec) (*Spawned, error) {
	// The loops query through the round view; without a store there is
	// nothing to route (and the factory's capability check reports it).
	env := s.env
	if s.env.Querier != nil {
		routed := *s.env
		routed.Querier = s.view
		env = &routed
	}
	sp, err := s.reg.Spawn(env, spec)
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
		s.created = append(s.created, bl.Loop)
	}
	s.managed[g.loops[0].Name] = g
	if s.env.Querier != nil {
		f, _ := s.reg.Lookup(spec.Case)
		s.view.declare(f.Inputs)
	}
	return sp, nil
}

// Tick runs one control round at virtual time now: queued verdicts and
// expired approval timeouts are applied, stale pending actions are swept,
// a round of the view opens, and the fleet coordinator ticks; the loops'
// readings are computed as they are first read, and the loops the round
// started are journaled. It implements telemetry.Ticker so the monitoring
// cadence can drive the control plane.
func (s *Service) Tick(now time.Duration) {
	s.mu.Lock()
	s.now = now
	resolved := s.settleQueue(now)
	s.created = slices.DeleteFunc(s.created, started) // restored, paused or removed since
	s.view.begin()
	members := s.coord.Len()
	s.coord.Tick(now)
	s.rounds.Store(int64(s.coord.Metrics().Rounds))
	s.view.end()
	if s.coord.Len() != members { // the round pruned stopped loops
		s.pruneStopped()
	}
	// The loops the round started are published under mu, as an applied
	// op is, so the record precedes every later op.
	var first []string
	for _, l := range s.created {
		if started(l) {
			first = append(first, l.Name)
		}
	}
	s.created = slices.DeleteFunc(s.created, started)
	if first != nil && s.bus != nil && s.bus.HasReceiver(TopicStarted) {
		s.publish(TopicStarted, now, first)
	}
	s.mu.Unlock()
	for _, r := range resolved {
		s.publish(TopicResolved, now, r)
	}
}

// started reports whether l has left StateCreated.
func started(l *core.Loop) bool { return l.State() != core.StateCreated }

// Rounds reports how many fleet rounds have run, as of the last completed
// Tick. Unlike Coordinator().Metrics(), which belongs to the tick
// goroutine, it is safe to call from any goroutine (a worker's heartbeat).
func (s *Service) Rounds() int { return int(s.rounds.Load()) }

// pruneStopped forgets managed groups whose every loop has stopped (the
// coordinator has already dropped them from its membership). Tick runs it
// only after a round pruned the coordinator; a remove op forgets its group
// itself.
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
// the pending queue, its timeout is fixed from its group's contingency_after,
// and the queue entry is announced on control.v1.pending. The managed loops
// tick only inside Tick, so the caller holds mu.
func (s *Service) Defer(d core.DeferredAction) {
	now := d.Decided
	e := &pendingEntry{d: d}
	if h := s.byLoop[d.Loop.Name].spec.Human; h != nil && h.ContingencyAfter > 0 {
		e.contingencyAt = now + h.ContingencyAfter.D()
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
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.lookupPending(v.Seq)
	if e == nil {
		return Reply{ID: v.ID, Op: op, OK: false, Error: fmt.Sprintf("no pending action %d", v.Seq)}
	}
	if v.Loop != "" && v.Loop != e.d.Loop.Name {
		return Reply{ID: v.ID, Op: op, OK: false, Error: fmt.Sprintf(
			"pending action %d belongs to loop %q, not %q", v.Seq, e.d.Loop.Name, v.Loop)}
	}
	s.queueVerdict(approve, v)
	s.journalLocked(Applied{Request: Request{Op: op}, Verdict: &v})
	return Reply{ID: v.ID, Op: op, OK: true, Resolution: &Resolution{
		Seq: v.Seq, Loop: e.d.Loop.Name, Outcome: OutcomeQueued,
	}}
}

// queueVerdict queues one verdict for the next round to apply.
func (s *Service) queueVerdict(approve bool, v Verdict) {
	s.qmu.Lock()
	s.verdicts = append(s.verdicts, queuedVerdict{seq: v.Seq, approve: approve, reason: v.Reason})
	s.qmu.Unlock()
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
	case OpSpawn, OpRemove, OpPause, OpResume, OpDrain, OpSetMode, OpSetGuard:
		s.mu.Lock()
		g, err := s.applyLocked(&req)
		if err != nil {
			s.mu.Unlock()
			return fail("%v", err)
		}
		spec := g.spec
		if req.Op == OpSpawn {
			req.Spec = &spec
			r.Spec = &spec
		}
		s.journalLocked(Applied{Request: req})
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

// applyLocked applies one state-changing request (spawn, remove, pause,
// resume, drain, set-mode, set-guard) and returns its group: Handle, Restore
// and ApplyWAL all change the managed set through it. Caller holds mu.
func (s *Service) applyLocked(req *Request) (*managedGroup, error) {
	if req.Op == OpSpawn {
		if req.Spec == nil {
			return nil, fmt.Errorf("spawn without spec")
		}
		sp, err := s.spawnLocked(*req.Spec)
		if err != nil {
			return nil, err
		}
		return s.byLoop[sp.Loop().Name], nil
	}
	g := s.byLoop[req.Loop]
	if g == nil {
		return nil, fmt.Errorf("unknown loop %q", req.Loop)
	}
	var mode core.Mode
	switch {
	case req.Op == OpSetMode:
		var err error
		if mode, err = core.ParseMode(req.Mode); err != nil {
			return nil, err
		}
	case req.Op == OpSetGuard && req.Guard == nil:
		return nil, fmt.Errorf("set-guard without guard")
	}
	for _, l := range g.loops {
		var err error
		switch req.Op {
		case OpSetMode:
			l.Mode = mode
		case OpSetGuard:
			var guard core.Guardrail // one stateful guard instance per loop
			if guard, err = buildGuard(*req.Guard); err == nil {
				l.Guards = append(l.Guards, guard)
			}
		case OpRemove:
			_ = l.Stop()
			s.coord.Remove(l.Name)
			delete(s.byLoop, l.Name)
		case OpResume:
			err = l.Resume()
		case OpPause:
			err = moveTo(l, core.StatePaused)
		case OpDrain:
			err = moveTo(l, core.StateDraining)
		}
		if err != nil {
			return nil, err
		}
	}
	switch req.Op {
	case OpSetMode:
		g.spec.Mode = mode.String()
	case OpSetGuard:
		g.guards = append(g.guards, *req.Guard)
	case OpRemove:
		delete(s.managed, g.loops[0].Name)
	}
	return g, nil
}

// moveTo drives l to state: Restore drives each re-spawned loop to the state
// its snapshot recorded, and the pause and drain ops drive a group's loops.
func moveTo(l *core.Loop, state core.LifecycleState) error {
	switch state {
	case core.StateRunning:
		return l.Start()
	case core.StatePaused:
		return l.Pause()
	case core.StateDraining:
		return l.Drain()
	case core.StateStopped:
		return l.Stop()
	}
	return nil // created: where a spawn leaves it
}

// journalLocked publishes one applied op on TopicApplied when anything
// receives it. Caller holds mu, so the op is published in the order it was
// applied relative to every round and every other op.
func (s *Service) journalLocked(a Applied) {
	if s.bus != nil && s.bus.HasReceiver(TopicApplied) {
		s.publish(TopicApplied, s.now, a)
	}
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
