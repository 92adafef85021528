package cluster

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"autoloop/internal/bus"
	"autoloop/internal/control"
	"autoloop/internal/tsdb"
	"autoloop/internal/wal"
)

// DefaultAssignTimeout is how long the coordinator waits for an assignment
// ack before re-sending it.
const DefaultAssignTimeout = 3 * time.Second

// Options configures a Coordinator.
type Options struct {
	// Source tags outbound envelopes (defaults to "coordinator").
	Source string
	// Lease is the worker lease window (default DefaultLeaseTTL): a worker
	// silent for longer turns suspect, and past Lease+Grace is declared
	// dead and its loops fail over.
	Lease time.Duration
	// Grace is the suspect window between "worker slow" and "worker dead":
	// a suspect worker keeps its ring position and loops, and a heartbeat
	// arriving within the window re-acquires the lease without re-Hello
	// churn. 0 selects one extra lease window; negative disables the tier.
	Grace time.Duration
	// Replicas is the consistent-hash virtual-point count per worker
	// (default DefaultReplicas).
	Replicas int
	// ArbWindow is the cross-node subject-grant window (default
	// DefaultArbWindow).
	ArbWindow time.Duration
	// ScatterTimeout bounds each scatter-gather fan-out (default
	// DefaultScatterTimeout).
	ScatterTimeout time.Duration
	// AssignTimeout bounds one unacked assignment before re-send (default
	// DefaultAssignTimeout).
	AssignTimeout time.Duration
	// Registry, when set, answers the cases op locally (workers all run
	// the same registry, so the coordinator's copy is authoritative).
	Registry *control.Registry
	// Ledger, when set, journals every placement event (KindClusterEvent
	// records) so a coordinator restart rebuilds its table via ApplyWAL.
	Ledger *wal.WAL
}

// Stats is a snapshot of the coordinator's counters.
type Stats struct {
	Members           int    // directory entries (alive + suspect + expired)
	Alive             int    // fully-alive workers
	Suspect           int    // workers in the lease grace tier ("slow, not dead")
	Specs             int    // specs in the placement table
	Placed            int    // specs acked by their worker
	Unplaced          int    // specs pending, in flight, or failed
	Assigns           uint64 // assignments sent (incl. re-sends and failovers)
	Failovers         uint64 // placements moved off an expired worker
	LeaseExpiries     uint64 // worker leases expired
	SuspectEvents     uint64 // alive→suspect lease transitions
	Fanouts           uint64 // scatter-gather requests fanned out
	FanTimeouts       uint64 // scatters that hit the timeout with replies missing
	ScatterPartials   uint64 // scatters answered with partial coverage
	DigestsSeen       uint64 // arbitration digests processed
	DigestsDenied     uint64 // digest actions denied cross-node
	DigestsBackfilled uint64 // stale digests re-delivered by rejoining workers
	LedgerFaults      uint64 // placement-ledger appends that failed
}

// placement is one spec's placement record.
type placement struct {
	group  string
	spec   control.LoopSpec
	worker string // current owner ("" while unplaced)
	state  string // "pending", "assigned", "placed", "failed"
	loops  []string
	sentAt time.Time
	sentID string
}

// Placement states.
const (
	placePending  = "pending"
	placeAssigned = "assigned"
	placePlaced   = "placed"
	placeFailed   = "failed"
)

// Coordinator places LoopSpecs across worker processes over the bus bridge,
// tracks their leases, fails their loops over on expiry, arbitrates shared
// subjects across nodes, and scatter-gathers queries. Attach it to the bus
// the cluster-facing bus.Server exports, then drive Tick from a wall-clock
// ticker.
type Coordinator struct {
	b    *bus.Bus
	opts Options

	ring    *Ring
	dir     *Directory
	arb     *Arbiter
	scatter *scatter

	mu     sync.Mutex
	specs  map[string]*placement // by group
	byLoop map[string]string     // loop name -> group (from acks)
	nextID uint64

	assigns      atomic.Uint64
	failovers    atomic.Uint64
	expiries     atomic.Uint64
	suspects     atomic.Uint64
	digests      atomic.Uint64
	backfilled   atomic.Uint64
	ledgerFaults atomic.Uint64

	cancels []func()
}

// NewCoordinator builds a coordinator over b and subscribes its handlers:
// the cluster worker topics, the operator-facing control.v1 request and
// verdict topics, and the tsdb query topic (answered by scatter-gather).
func NewCoordinator(b *bus.Bus, opts Options) *Coordinator {
	if opts.Source == "" {
		opts.Source = "coordinator"
	}
	if opts.AssignTimeout <= 0 {
		opts.AssignTimeout = DefaultAssignTimeout
	}
	c := &Coordinator{
		b:       b,
		opts:    opts,
		ring:    NewRing(opts.Replicas),
		dir:     NewDirectory(opts.Lease, opts.Grace),
		arb:     NewArbiter(opts.ArbWindow),
		scatter: newScatter(b, opts.Source, opts.ScatterTimeout),
		specs:   make(map[string]*placement),
		byLoop:  make(map[string]string),
	}
	c.cancels = append(c.cancels,
		b.Subscribe(TopicHello, c.handleHello),
		b.Subscribe(TopicHeartbeat, c.handleHeartbeat),
		b.Subscribe(TopicAck, c.handleAck),
		b.Subscribe(TopicDigest, c.handleDigest),
		b.Subscribe(TopicReply, c.scatter.handleReply),
		b.Subscribe(control.TopicRequest, c.handleControlRequest),
		b.Subscribe(control.TopicApprove, func(env bus.Envelope) { c.handleVerdict(env, true) }),
		b.Subscribe(control.TopicDeny, func(env bus.Envelope) { c.handleVerdict(env, false) }),
		b.Subscribe(tsdb.QueryTopic, c.handleQuery),
	)
	return c
}

// Close unsubscribes the coordinator from its bus topics.
func (c *Coordinator) Close() {
	for _, cancel := range c.cancels {
		cancel()
	}
	c.cancels = nil
}

// Directory exposes the member directory (lease table).
func (c *Coordinator) Directory() *Directory { return c.dir }

// Stats returns a snapshot of the coordinator's counters.
func (c *Coordinator) Stats() Stats {
	now := time.Now()
	views := c.dir.snapshot(now)
	s := Stats{
		Members:           len(views),
		Assigns:           c.assigns.Load(),
		Failovers:         c.failovers.Load(),
		LeaseExpiries:     c.expiries.Load(),
		SuspectEvents:     c.suspects.Load(),
		Fanouts:           c.scatter.fanned.Load(),
		FanTimeouts:       c.scatter.timeous.Load(),
		ScatterPartials:   c.scatter.partials.Load(),
		DigestsSeen:       c.digests.Load(),
		DigestsDenied:     c.arb.Denied(),
		DigestsBackfilled: c.backfilled.Load(),
		LedgerFaults:      c.ledgerFaults.Load(),
	}
	for _, v := range views {
		switch v.state {
		case stateAlive:
			s.Alive++
		case stateSuspect:
			s.Suspect++
		}
	}
	c.mu.Lock()
	s.Specs = len(c.specs)
	for _, p := range c.specs {
		if p.state == placePlaced {
			s.Placed++
		} else {
			s.Unplaced++
		}
	}
	c.mu.Unlock()
	return s
}

// Members reports the directory as control wire MemberInfo rows, with each
// member's current placement count.
func (c *Coordinator) Members() []control.MemberInfo {
	now := time.Now()
	perWorker := make(map[string]int)
	c.mu.Lock()
	for _, p := range c.specs {
		if p.worker != "" && p.state != placePending {
			perWorker[p.worker]++
		}
	}
	c.mu.Unlock()
	var out []control.MemberInfo
	for _, v := range c.dir.snapshot(now) {
		out = append(out, control.MemberInfo{
			ID: v.id, State: stateName(v.state), Loops: perWorker[v.id],
			Series: v.hb.Series, Samples: v.hb.Samples, Rounds: v.hb.Rounds,
			LastBeatMS: v.sinceBeat.Milliseconds(),
		})
	}
	return out
}

// groupKey names a spec's placement group: the explicit loop name when set,
// else the case name. Every spec in one cluster needs a distinct group, so
// running the same case twice requires naming the second deployment — the
// same rule the single-process service enforces through loop-name
// uniqueness.
func groupKey(spec control.LoopSpec) string {
	if spec.Name != "" {
		return spec.Name
	}
	return spec.Case
}

// AddSpec admits one spec into the placement table and places it if a
// worker is available; with no workers it stays pending until one joins.
func (c *Coordinator) AddSpec(spec control.LoopSpec) (control.PlacementInfo, error) {
	if err := spec.Validate(); err != nil {
		return control.PlacementInfo{}, err
	}
	group := groupKey(spec)
	c.mu.Lock()
	if _, dup := c.specs[group]; dup {
		c.mu.Unlock()
		return control.PlacementInfo{}, fmt.Errorf("cluster: group %q already placed (name the spec to run a case twice)", group)
	}
	p := &placement{group: group, spec: spec, state: placePending}
	c.specs[group] = p
	c.ledger(ledgerEvent{Op: "spec", Group: group, Spec: &spec})
	c.placeLocked(p, time.Now())
	info := placementInfo(p)
	c.mu.Unlock()
	return info, nil
}

func placementInfo(p *placement) control.PlacementInfo {
	return control.PlacementInfo{Group: p.group, Case: p.spec.Case, Worker: p.worker, State: p.state}
}

func (c *Coordinator) newID(prefix string) string {
	c.nextID++
	return prefix + "-" + strconv.FormatUint(c.nextID, 10)
}

// placeLocked assigns p to its ring owner if one is alive. Caller holds mu.
func (c *Coordinator) placeLocked(p *placement, now time.Time) {
	owner := c.ring.Owner(p.group)
	if owner == "" {
		p.state = placePending
		p.worker = ""
		return
	}
	p.worker = owner
	p.state = placeAssigned
	p.sentAt = now
	p.sentID = c.newID("asg")
	c.assigns.Add(1)
	c.ledger(ledgerEvent{Op: "assign", Group: p.group, Worker: owner})
	c.publish(TopicAssign, Assign{Worker: owner, ID: p.sentID, Group: p.group, Spec: p.spec})
}

// rebalance re-derives every placement's owner after a membership change:
// groups whose owner moved are revoked from a still-alive old owner and
// assigned to the new one. Caller holds mu.
func (c *Coordinator) rebalanceLocked(now time.Time) {
	groups := make([]string, 0, len(c.specs))
	for g := range c.specs {
		groups = append(groups, g)
	}
	sort.Strings(groups) // deterministic assignment order
	for _, g := range groups {
		p := c.specs[g]
		desired := c.ring.Owner(p.group)
		if desired == "" {
			p.state = placePending
			p.worker = ""
			continue
		}
		if desired == p.worker && p.state != placePending && p.state != placeFailed {
			continue
		}
		if p.worker != "" && p.worker != desired && c.dir.IsAlive(p.worker) {
			c.publish(TopicRevoke, Revoke{Worker: p.worker, ID: c.newID("rev"), Group: p.group})
		}
		c.placeLocked(p, now)
	}
}

// Tick drives lease sweeping, failover, and assignment retry at wall time
// now. Call it from a ticker (modad uses its 250ms drive loop).
func (c *Coordinator) Tick(now time.Time) {
	suspects, expired := c.dir.Sweep(now)
	c.suspects.Add(uint64(len(suspects)))
	c.mu.Lock()
	if len(expired) > 0 {
		for _, id := range expired {
			c.expiries.Add(1)
			c.ring.Remove(id)
			c.arb.Forget(id)
			c.ledger(ledgerEvent{Op: "expire", Worker: id})
			for _, p := range c.specs {
				if p.worker == id {
					c.failovers.Add(1)
				}
			}
		}
		c.rebalanceLocked(now)
	}
	// Re-send assignments that were never acked (a lost line, a worker that
	// restarted between assign and ack). Assigns are idempotent on the
	// worker: re-assigning a held group acks OK without re-spawning.
	for _, p := range c.specs {
		switch p.state {
		case placeAssigned:
			if now.Sub(p.sentAt) > c.opts.AssignTimeout {
				c.placeLocked(p, now)
			}
		case placePending:
			c.placeLocked(p, now)
		}
	}
	c.mu.Unlock()
}

// handleHello admits a worker: directory entry, ring membership, and a
// rebalance that moves it its share of the groups.
func (c *Coordinator) handleHello(env bus.Envelope) {
	var h Hello
	if err := bus.DecodePayload(env, &h); err != nil || h.Worker == "" {
		return
	}
	now := time.Now()
	fresh := c.dir.Hello(h.Worker, now)
	c.mu.Lock()
	defer c.mu.Unlock()
	if fresh {
		c.ring.Add(h.Worker)
	}
	// Reconcile groups the worker already holds (it outlived a coordinator
	// restart): placements the ledger assigned to it are confirmed placed
	// without a re-spawn.
	held := make(map[string]bool, len(h.Groups))
	for _, g := range h.Groups {
		held[g] = true
	}
	for _, p := range c.specs {
		if held[p.group] && p.worker == h.Worker {
			p.state = placePlaced
		}
	}
	// Rejoin reconciliation, the other direction: revoke held groups that
	// are no longer this worker's to run — unspec'd while it was away, or
	// failed over to another owner during a partition. Groups the ring
	// will hand straight back are left alone; the rebalance below
	// re-assigns them and the worker's idempotent assign handler acks
	// without a re-spawn.
	for _, g := range h.Groups {
		p := c.specs[g]
		if p != nil && (p.worker == h.Worker || c.ring.Owner(g) == h.Worker) {
			continue
		}
		c.publish(TopicRevoke, Revoke{Worker: h.Worker, ID: c.newID("rev"), Group: g})
	}
	c.rebalanceLocked(now)
}

func (c *Coordinator) handleHeartbeat(env bus.Envelope) {
	var hb Heartbeat
	if err := bus.DecodePayload(env, &hb); err != nil || hb.Worker == "" {
		return
	}
	if !c.dir.Beat(hb, time.Now()) {
		// Unknown or expired: the worker must re-register. Nothing to send
		// — the worker's next heartbeat gap or its own re-Hello resolves it;
		// modad workers re-Hello on a timer whenever unplaced.
		return
	}
}

func (c *Coordinator) handleAck(env bus.Envelope) {
	var a Ack
	if err := bus.DecodePayload(env, &a); err != nil || a.Group == "" {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	p := c.specs[a.Group]
	if p == nil || p.worker != a.Worker {
		return // a stale ack from a revoked owner
	}
	if !a.OK {
		p.state = placeFailed
		return
	}
	p.state = placePlaced
	p.loops = a.Loops
	for _, loop := range a.Loops {
		c.byLoop[loop] = a.Group
	}
	c.ledger(ledgerEvent{Op: "placed", Group: a.Group, Worker: a.Worker})
}

func (c *Coordinator) handleDigest(env bus.Envelope) {
	var d Digest
	if err := bus.DecodePayload(env, &d); err != nil || d.Worker == "" {
		return
	}
	if d.Backfill {
		// A rejoined worker re-delivering what it executed while
		// partitioned (degraded standalone mode, local fail-open). The
		// actions already ran and predate the arbitration window, so they
		// are recorded, not arbitrated — and no verdict is owed.
		c.backfilled.Add(1)
		return
	}
	c.digests.Add(1)
	c.publish(TopicVerdict, c.arb.Decide(d, time.Now()))
}

// publish sends one envelope on the coordinator bus.
func (c *Coordinator) publish(topic string, payload interface{}) {
	c.b.Publish(bus.Envelope{Topic: topic, Source: c.opts.Source, Payload: payload})
}

// ledger journals one placement event when a ledger WAL is attached.
// Failures are counted (cluster_ledger_faults_total) but never block
// placement: the ledger is a restart optimization, and placement state is
// reconstructible from worker hellos even with a torn ledger. Retryable
// faults (backlog, ENOSPC) heal inside the WAL; a fatal fault leaves the
// WAL sticky-failed and every later append lands here once per event.
func (c *Coordinator) ledger(ev ledgerEvent) {
	if c.opts.Ledger == nil {
		return
	}
	if _, err := c.opts.Ledger.Append(wal.KindClusterEvent, mustJSON(ev)); err != nil {
		c.ledgerFaults.Add(1)
	}
}

// ledgerEvent is one KindClusterEvent record.
type ledgerEvent struct {
	Op     string            `json:"op"` // "spec", "unspec", "assign", "placed", "expire"
	Group  string            `json:"group,omitempty"`
	Worker string            `json:"worker,omitempty"`
	Spec   *control.LoopSpec `json:"spec,omitempty"`
}

// ApplyWAL replays one KindClusterEvent payload into the placement table —
// the coordinator-restart half of failover: specs and their last known
// owners come back from the ledger, worker hellos then reconcile reality.
func (c *Coordinator) ApplyWAL(payload []byte) error {
	var ev ledgerEvent
	if err := json.Unmarshal(payload, &ev); err != nil {
		return fmt.Errorf("cluster: ledger replay: %w", err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	switch ev.Op {
	case "spec":
		if ev.Spec == nil {
			return fmt.Errorf("cluster: ledger spec event without spec")
		}
		c.specs[ev.Group] = &placement{group: ev.Group, spec: *ev.Spec, state: placePending}
	case "unspec":
		delete(c.specs, ev.Group)
	case "assign":
		if p := c.specs[ev.Group]; p != nil {
			p.worker = ev.Worker
			p.state = placeAssigned
		}
	case "placed":
		if p := c.specs[ev.Group]; p != nil && p.worker == ev.Worker {
			p.state = placePlaced
		}
	case "expire":
		for _, p := range c.specs {
			if p.worker == ev.Worker {
				p.worker = ""
				p.state = placePending
			}
		}
	default:
		return fmt.Errorf("cluster: unknown ledger op %q", ev.Op)
	}
	return nil
}

// RestoreDone marks the end of ledger replay: every restored placement is
// downgraded to assigned-at-best until its worker's hello confirms it, and
// assignment timers restart from now.
func (c *Coordinator) RestoreDone() {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, p := range c.specs {
		if p.state == placePlaced {
			p.state = placeAssigned
		}
		p.sentAt = now
	}
}
