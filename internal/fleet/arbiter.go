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

// arbitrate resolves cross-loop conflicts among the actions planned in one
// round. A subject is contested when two or more loops plan actions on it;
// its winner is the highest-priority action, ties keeping the earlier one
// (registration order, then plan position), and every other loop's action
// that Yields to the winner loses and is marked arbitrated on its
// PlannedTick. The conflict records come back in deterministic
// (first-subject-appearance) order.
func arbitrate(members []member, plans []*core.PlannedTick) []ConflictRecord {
	var order []string
	bySubject := make(map[string][]candidate)
	multiLoop := make(map[string]bool)
	for mi, pt := range plans {
		for ai, act := range pt.Actions() {
			if act.Subject == "" {
				continue
			}
			group := bySubject[act.Subject]
			if group == nil {
				order = append(order, act.Subject)
			} else if group[0].mi != mi {
				multiLoop[act.Subject] = true
			}
			bySubject[act.Subject] = append(group, candidate{mi: mi, ai: ai, act: act})
		}
	}

	var records []ConflictRecord
	for _, subject := range order {
		if !multiLoop[subject] {
			continue // a loop never conflicts with itself
		}
		group := bySubject[subject]
		win := group[0]
		for _, cand := range group[1:] {
			if members[cand.mi].priority > members[win.mi].priority {
				win = cand
			}
		}
		winLoop, winPrio := members[win.mi].loop, members[win.mi].priority
		var losers []string
		for _, cand := range group {
			prio := members[cand.mi].priority
			if cand.mi == win.mi || !Yields(cand.act.Kind, prio, win.act.Kind, winPrio) {
				continue
			}
			plans[cand.mi].Arbitrate(cand.ai, fmt.Sprintf(
				"lost %s to %s/%s (priority %d vs %d)", subject, winLoop.Name, win.act.Kind, prio, winPrio))
			losers = append(losers, members[cand.mi].loop.Name+"/"+cand.act.Kind)
		}
		if len(losers) > 0 {
			records = append(records, ConflictRecord{
				Subject: subject,
				Winner:  winLoop.Name + "/" + win.act.Kind,
				Losers:  losers,
			})
		}
	}
	return records
}
