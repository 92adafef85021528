package control

import (
	"encoding/json"
	"fmt"
	"sort"

	"autoloop/internal/bus"
	"autoloop/internal/core"
	"autoloop/internal/wal"
)

// Control-plane persistence: a snapshot plus the ops applied since. The
// durable state (group specs, applied guards, per-loop lifecycle states and
// modes, the pending-approval queue) is small and changes at human cadence:
// each daemon snapshot serializes all of it and Restore re-spawns the fleet
// from the registry, and between snapshots the journal holds every applied
// op (TopicApplied), pending announcement and resolution, which ApplyWAL
// folds back through the paths that made them.
//
// Pending approvals restore LIVE: each entry is rebuilt as a
// core.DeferredAction on the re-spawned loop at its current generation, so
// an approval after recovery executes through that loop's Executor, and an
// entry whose loop came back paused or draining settles as stale, as the
// lifecycle rules would have ruled without the restart.

// LoopSnap is one member loop's serialized lifecycle.
type LoopSnap struct {
	Name  string `json:"name"`
	State string `json:"state"`
	Mode  string `json:"mode"`
}

// GroupSnap is one managed group: the normalized spec it was spawned from,
// the guard specs appended since (set-guard ops), and each member loop's
// lifecycle state.
type GroupSnap struct {
	Spec   LoopSpec    `json:"spec"`
	Guards []GuardSpec `json:"guards,omitempty"`
	Loops  []LoopSnap  `json:"loops"`
}

// ServiceSnap is the whole control plane's serialized state.
type ServiceSnap struct {
	Now    Duration    `json:"now"`
	Seq    uint64      `json:"seq"`
	Groups []GroupSnap `json:"groups,omitempty"`
	// Pending is the queue, each entry with its timeout policy so a
	// contingency deadline survives the restart.
	Pending []PendingInfo `json:"pending,omitempty"`
}

// Snapshot serializes the control plane: every managed group (sorted by
// group name, so the bytes are deterministic) and the pending-approval
// queue in queue order. cut, when not nil, runs under the service's lock
// first, so no op is applied between it and the state serialized: a
// journaling daemon reads its log's position there.
func (s *Service) Snapshot(cut func()) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cut != nil {
		cut()
	}
	snap := ServiceSnap{Now: Duration(s.now)}
	names := make([]string, 0, len(s.managed))
	for name := range s.managed {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		g := s.managed[name]
		gs := GroupSnap{Spec: g.spec, Guards: append([]GuardSpec(nil), g.guards...)}
		for _, l := range g.loops {
			gs.Loops = append(gs.Loops, LoopSnap{Name: l.Name, State: l.State().String(), Mode: l.Mode.String()})
		}
		snap.Groups = append(snap.Groups, gs)
	}
	s.qmu.Lock()
	snap.Seq = s.seq
	for _, seq := range s.order {
		if e := s.pending[seq]; e != nil {
			snap.Pending = append(snap.Pending, e.info)
		}
	}
	s.qmu.Unlock()
	return json.Marshal(&snap)
}

// Restore rebuilds the control plane from a Snapshot payload. It must be
// called on a service that has not spawned anything yet, with the same
// registry and environment the snapshot's specs were spawned against. Each
// group is re-spawned from its normalized spec, its guards re-applied, and
// its loops driven to their recorded lifecycle states; the pending queue is
// rebuilt with live deferred actions bound to the re-spawned loops.
func (s *Service) Restore(data []byte) error {
	var snap ServiceSnap
	if err := json.Unmarshal(data, &snap); err != nil {
		return fmt.Errorf("control: restore: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.managed) > 0 {
		return fmt.Errorf("control: restore into a service that already manages %d groups", len(s.managed))
	}
	s.now = snap.Now.D()
	s.qmu.Lock()
	s.seq = snap.Seq
	s.qmu.Unlock()
	for _, gs := range snap.Groups {
		g, err := s.applyLocked(&Request{Op: OpSpawn, Spec: &gs.Spec})
		for i := 0; err == nil && i < len(gs.Guards); i++ {
			_, err = s.applyLocked(&Request{Op: OpSetGuard, Loop: g.loops[0].Name, Guard: &gs.Guards[i]})
		}
		if err != nil {
			return fmt.Errorf("control: restore group %q: %w", gs.Spec.Name, err)
		}
		for _, ls := range gs.Loops {
			loop := g.member(ls.Name)
			if loop == nil {
				return fmt.Errorf("control: restore: group %q has no loop %q", gs.Spec.Name, ls.Name)
			}
			if ls.Mode != "" {
				mode, err := core.ParseMode(ls.Mode)
				if err != nil {
					return fmt.Errorf("control: restore loop %q: %w", ls.Name, err)
				}
				loop.Mode = mode
			}
			state, err := core.ParseLifecycleState(ls.State)
			if err == nil {
				err = moveTo(loop, state)
			}
			if err != nil {
				return fmt.Errorf("control: restore loop %q to %s: %w", ls.Name, ls.State, err)
			}
		}
	}
	for _, p := range snap.Pending {
		if err := s.addPendingLocked(p); err != nil {
			return fmt.Errorf("control: restore: %w", err)
		}
	}
	return nil
}

// ApplyWAL folds one journaled record into the service, after Restore and
// before anything else drives it: an applied op (TopicApplied) through
// Handle's path, a pending announcement into the queue as Restore rebuilds
// one, a resolution out of it. A folded verdict is queued again, and the
// next round applies it unless a folded resolution settled its entry. The
// loops a round started (TopicStarted) start again if they are still
// created, so a loop that ran before a crash is not listed as new. Other
// records are not the service's (false).
func (s *Service) ApplyWAL(rec wal.Record) (bool, error) {
	if rec.Kind != wal.KindBusEnvelope {
		return false, nil
	}
	env, err := bus.Decode(rec.Payload)
	if err != nil {
		return false, nil
	}
	var a Applied
	var p PendingInfo
	var r Resolution
	s.mu.Lock()
	defer s.mu.Unlock()
	switch env.Topic {
	case TopicApplied:
		if err = bus.DecodePayload(env, &a); err == nil {
			if a.Verdict != nil {
				s.queueVerdict(a.Op == OpApprove, *a.Verdict)
			} else {
				_, err = s.applyLocked(&a.Request)
			}
		}
	case TopicPending:
		if err = bus.DecodePayload(env, &p); err == nil {
			err = s.addPendingLocked(p)
		}
	case TopicResolved:
		if err = bus.DecodePayload(env, &r); err == nil {
			s.dropPending(r.Seq)
		}
	case TopicStarted:
		var names []string
		if err = bus.DecodePayload(env, &names); err == nil {
			for _, name := range names {
				if g := s.byLoop[name]; g != nil && g.member(name).State() == core.StateCreated {
					_ = g.member(name).Start() // created → running is always a valid move
				}
			}
		}
	default:
		return false, nil
	}
	if err != nil {
		return true, fmt.Errorf("control: fold %s seq %d: %w", env.Topic, rec.Seq, err)
	}
	s.now = env.Time
	return true, nil
}

// member returns the group's loop called name, or nil.
func (g *managedGroup) member(name string) *core.Loop {
	for _, l := range g.loops {
		if l.Name == name {
			return l
		}
	}
	return nil
}

// addPendingLocked queues one recorded pending action, a snapshot's or a
// journaled announcement, as a live entry of its loop, captured at the
// loop's current generation: an approval after recovery executes, and a
// loop recovered paused or draining settles it as stale. Caller holds mu.
func (s *Service) addPendingLocked(p PendingInfo) error {
	var loop *core.Loop
	if g := s.byLoop[p.Loop]; g != nil {
		loop = g.member(p.Loop)
	}
	if loop == nil {
		return fmt.Errorf("pending action %d names unknown loop %q", p.Seq, p.Loop)
	}
	s.qmu.Lock()
	defer s.qmu.Unlock()
	s.pending[p.Seq] = &pendingEntry{
		seq: p.Seq, info: p, contingencyAt: p.ContingencyAt.D(),
		d: core.DeferredAction{Loop: loop, Decided: p.Decided.D(), Action: coreAction(p.Action), Gen: loop.Generation()},
	}
	s.order = append(s.order, p.Seq)
	s.seq = max(s.seq, p.Seq)
	return nil
}

// coreAction inverts wireAction.
func coreAction(a WireAction) core.Action {
	return core.Action{
		Kind: a.Kind, Subject: a.Subject, Amount: a.Amount,
		Confidence: a.Confidence, Explanation: core.Text(a.Explanation),
	}
}
