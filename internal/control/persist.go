package control

import (
	"encoding/json"
	"fmt"
	"sort"

	"autoloop/internal/core"
)

// Control-plane persistence. The service's durable state is snapshot-only
// (no per-op journal): group specs, applied guards, per-loop lifecycle
// states and modes, and the pending-approval queue are all small and change
// at human cadence, so the daemon serializes them with each periodic
// snapshot and recovery re-spawns the fleet from the registry.
//
// Pending approvals restore LIVE, not as tombstones: a WireAction is pure
// data, so each queue entry is rebuilt as a core.DeferredAction pointing at
// the re-spawned loop, captured at that loop's post-restore lifecycle
// generation. An approval granted after recovery therefore executes through
// the re-spawned loop's Executor exactly as it would have before the crash;
// entries whose loop was restored paused or draining settle as stale, the
// same verdict the lifecycle rules would have reached without the restart.

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

// PendingSnap is one queued approval, including its timeout policy so a
// contingency deadline survives the restart.
type PendingSnap struct {
	Seq           uint64     `json:"seq"`
	Loop          string     `json:"loop"`
	Decided       Duration   `json:"decided"`
	Action        WireAction `json:"action"`
	ContingencyAt Duration   `json:"contingency_at,omitempty"`
}

// ServiceSnap is the whole control plane's serialized state.
type ServiceSnap struct {
	Now     Duration      `json:"now"`
	Seq     uint64        `json:"seq"`
	Groups  []GroupSnap   `json:"groups,omitempty"`
	Pending []PendingSnap `json:"pending,omitempty"`
}

// Snapshot serializes the control plane: every managed group (sorted by
// group name, so the bytes are deterministic) and the pending-approval
// queue in queue order.
func (s *Service) Snapshot() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
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
		e := s.pending[seq]
		if e == nil {
			continue
		}
		snap.Pending = append(snap.Pending, PendingSnap{
			Seq: e.seq, Loop: e.d.Loop.Name, Decided: Duration(e.d.Decided),
			Action: wireAction(e.d.Action), ContingencyAt: Duration(e.contingencyAt),
		})
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
	for _, gs := range snap.Groups {
		sp, err := s.spawnLocked(gs.Spec)
		if err != nil {
			return fmt.Errorf("control: restore group %q: %w", gs.Spec.Name, err)
		}
		g := s.byLoop[sp.Loop().Name]
		for _, guardSpec := range gs.Guards {
			for _, l := range g.loops {
				guard, err := buildGuard(guardSpec)
				if err != nil {
					return fmt.Errorf("control: restore group %q: %w", gs.Spec.Name, err)
				}
				l.Guards = append(l.Guards, guard)
			}
			g.guards = append(g.guards, guardSpec)
		}
		for _, ls := range gs.Loops {
			var loop *core.Loop
			for _, l := range g.loops {
				if l.Name == ls.Name {
					loop = l
					break
				}
			}
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
			if err != nil {
				return fmt.Errorf("control: restore loop %q: %w", ls.Name, err)
			}
			switch state {
			case core.StateCreated:
				// The spawn left it created.
			case core.StateRunning:
				err = loop.Start()
			case core.StatePaused:
				err = loop.Pause()
			case core.StateDraining:
				err = loop.Drain()
			case core.StateStopped:
				err = loop.Stop()
			}
			if err != nil {
				return fmt.Errorf("control: restore loop %q to %s: %w", ls.Name, state, err)
			}
		}
	}

	s.qmu.Lock()
	defer s.qmu.Unlock()
	s.seq = snap.Seq
	for _, ps := range snap.Pending {
		g := s.byLoop[ps.Loop]
		if g == nil {
			return fmt.Errorf("control: restore: pending action %d names unknown loop %q", ps.Seq, ps.Loop)
		}
		var loop *core.Loop
		for _, l := range g.loops {
			if l.Name == ps.Loop {
				loop = l
				break
			}
		}
		if loop == nil {
			return fmt.Errorf("control: restore: pending action %d names unknown loop %q", ps.Seq, ps.Loop)
		}
		e := &pendingEntry{
			seq: ps.Seq,
			d: core.DeferredAction{
				Loop: loop, Decided: ps.Decided.D(), Action: coreAction(ps.Action),
				// Captured at the re-spawned loop's current generation: an
				// approval after recovery executes; if the loop was restored
				// paused or draining, the entry settles as stale instead.
				Gen: loop.Generation(),
			},
			contingencyAt: ps.ContingencyAt.D(),
		}
		e.info = PendingInfo{
			Seq: e.seq, Loop: ps.Loop, Decided: ps.Decided,
			Action: ps.Action, ContingencyAt: ps.ContingencyAt,
		}
		s.pending[e.seq] = e
		s.order = append(s.order, e.seq)
	}
	return nil
}

// coreAction inverts wireAction.
func coreAction(a WireAction) core.Action {
	return core.Action{
		Kind: a.Kind, Subject: a.Subject, Amount: a.Amount,
		Confidence: a.Confidence, Explanation: a.Explanation,
	}
}
