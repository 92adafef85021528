package fleet

import (
	"fmt"

	"autoloop/internal/core"
)

// ConflictRecord describes one arbitrated subject in one round: the action
// that won and the actions that lost to it. It is the payload published on
// TopicConflict.
type ConflictRecord struct {
	Subject string   `json:"subject"`
	Winner  string   `json:"winner"` // "loop/kind"
	Losers  []string `json:"losers"` // "loop/kind" each
}

// Yields reports whether an action of kind at priority prio yields its
// subject to a holder's action of holderKind at holderPrio. It is the one
// arbitration rule, shared by this package's round-barrier arbitration and
// the cluster's grant-window arbiter: two same-subject actions contradict
// when their kinds differ — two loops independently planning the same kind
// of action on a subject is redundancy, not contradiction — and of two
// contradicting actions the higher priority wins, a tie going to the holder.
func Yields(kind string, prio int, holderKind string, holderPrio int) bool {
	return kind != holderKind && prio <= holderPrio
}

// candidate is one planned action located in the round's plan set.
type candidate struct {
	mi, ai int // member index, action index within its plan
	act    core.Action
}

// subjectGroup is one subject's candidates in a round, in plan order.
type subjectGroup struct {
	subject   string
	multiLoop bool // planned on by two or more loops
	cands     []candidate
}

// arbiter is arbitrate's round scratch, kept on the Coordinator and reset
// every round, so arbitration allocates only for the conflicts it records.
type arbiter struct {
	index  map[string]int // subject -> its group's position in groups
	groups []subjectGroup // in first-subject-appearance order
}

// group returns the round's group for subject, opening it (and reusing an
// earlier round's candidate capacity) on the subject's first appearance.
func (a *arbiter) group(subject string) *subjectGroup {
	if gi, ok := a.index[subject]; ok {
		return &a.groups[gi]
	}
	a.index[subject] = len(a.groups)
	if len(a.groups) < cap(a.groups) {
		a.groups = a.groups[:len(a.groups)+1]
	} else {
		a.groups = append(a.groups, subjectGroup{})
	}
	g := &a.groups[len(a.groups)-1]
	g.subject, g.multiLoop, g.cands = subject, false, g.cands[:0]
	return g
}

// arbitrate resolves cross-loop conflicts among the actions planned in one
// round. A subject is contested when two or more loops plan actions on it;
// its winner is the highest-priority action, ties keeping the earlier one
// (registration order, then plan position), and every other loop's action
// that Yields to the winner loses and is marked arbitrated on its
// PlannedTick. The conflict records come back in deterministic
// (first-subject-appearance) order.
func (a *arbiter) arbitrate(members []member, plans []*core.PlannedTick) []ConflictRecord {
	defer a.reset()
	for mi, pt := range plans {
		for ai, act := range pt.Actions() {
			if act.Subject == "" {
				continue
			}
			g := a.group(act.Subject)
			if len(g.cands) > 0 && g.cands[0].mi != mi {
				g.multiLoop = true
			}
			g.cands = append(g.cands, candidate{mi: mi, ai: ai, act: act})
		}
	}

	var records []ConflictRecord
	for gi := range a.groups {
		g := &a.groups[gi]
		if !g.multiLoop {
			continue // a loop never conflicts with itself
		}
		win := g.cands[0]
		for _, cand := range g.cands[1:] {
			if members[cand.mi].priority > members[win.mi].priority {
				win = cand
			}
		}
		winLoop, winPrio := members[win.mi].loop, members[win.mi].priority
		var losers []string
		for _, cand := range g.cands {
			prio := members[cand.mi].priority
			if cand.mi == win.mi || !Yields(cand.act.Kind, prio, win.act.Kind, winPrio) {
				continue
			}
			plans[cand.mi].Arbitrate(cand.ai, fmt.Sprintf(
				"lost %s to %s/%s (priority %d vs %d)", g.subject, winLoop.Name, win.act.Kind, prio, winPrio))
			losers = append(losers, members[cand.mi].loop.Name+"/"+cand.act.Kind)
		}
		if len(losers) > 0 {
			records = append(records, ConflictRecord{
				Subject: g.subject,
				Winner:  winLoop.Name + "/" + win.act.Kind,
				Losers:  losers,
			})
		}
	}
	return records
}

// reset empties the scratch for the next round without keeping the round's
// actions reachable.
func (a *arbiter) reset() {
	for gi := range a.groups {
		clear(a.groups[gi].cands)
	}
	a.groups = a.groups[:0]
	clear(a.index)
}
