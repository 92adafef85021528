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

// Policy is the arbitration policy, shared by this package's round-barrier
// arbiter and the cluster's grant-window arbiter: which same-subject actions
// contradict, and which of two contradicting actions wins. Two actions
// contradict when their kinds differ — two loops independently planning the
// same kind of action on a subject is redundancy, not contradiction. The
// winner is the higher kind rank, then the higher loop priority; a tie goes
// to the incumbent. A Policy is immutable (RankKind returns a new one), so
// it may be shared across goroutines; the zero value ranks every kind 0.
type Policy struct {
	rank map[string]int
}

// RankKind returns the policy with actions of this kind dominating
// lower-ranked kinds on the same subject regardless of loop priority — e.g.
// ranking "cap" above "boost" lets a power-cap loop's cap beat a scheduler
// loop's boost even when the scheduler loop registered with higher
// priority. Unranked kinds rank 0; higher ranks win.
func (p Policy) RankKind(kind string, rank int) Policy {
	ranks := make(map[string]int, len(p.rank)+1)
	for k, r := range p.rank {
		ranks[k] = r
	}
	ranks[kind] = rank
	return Policy{rank: ranks}
}

// Rank returns a kind's rank (0 when unranked).
func (p Policy) Rank(kind string) int { return p.rank[kind] }

// Conflicts reports whether two same-subject actions from different sources
// contradict.
func (p Policy) Conflicts(kindA, kindB string) bool { return kindA != kindB }

// Beats reports whether challenger A wins over incumbent B.
func (p Policy) Beats(kindA string, prioA int, kindB string, prioB int) bool {
	if ra, rb := p.rank[kindA], p.rank[kindB]; ra != rb {
		return ra > rb
	}
	return prioA > prioB
}

// Arbiter resolves cross-loop conflicts among the actions planned in one
// round. Two actions conflict when they come from different loops, target the
// same subject, and the Policy says they contradict. Within a conflicting
// subject group the Policy picks one winner, registration order breaking
// ties; every action conflicting with the winner loses and is marked
// arbitrated on its loop.
type Arbiter struct {
	policy Policy
}

// NewArbiter returns an arbiter with the zero Policy.
func NewArbiter() *Arbiter { return &Arbiter{} }

// SetPolicy replaces the arbitration policy; call it between rounds.
func (a *Arbiter) SetPolicy(p Policy) { a.policy = p }

// candidate is one planned action located in the round's plan set.
type candidate struct {
	mi, ai int // member index, action index within its plan
	act    core.Action
}

// resolve arbitrates one round: it groups the planned actions by subject,
// picks a winner per contested group, marks every conflicting loser on its
// PlannedTick, and returns the conflict records in deterministic
// (first-subject-appearance) order.
func (a *Arbiter) resolve(members []member, plans []*core.PlannedTick) []ConflictRecord {
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
			if a.beats(members, cand, win) {
				win = cand
			}
		}
		var losers []string
		for _, cand := range group {
			if cand.mi == win.mi || !a.policy.Conflicts(cand.act.Kind, win.act.Kind) {
				continue
			}
			loserLoop := members[cand.mi].loop
			winnerLoop := members[win.mi].loop
			plans[cand.mi].Arbitrate(cand.ai, fmt.Sprintf(
				"lost %s to %s/%s (kind rank %d vs %d, priority %d vs %d)",
				subject, winnerLoop.Name, win.act.Kind,
				a.policy.Rank(cand.act.Kind), a.policy.Rank(win.act.Kind),
				members[cand.mi].priority, members[win.mi].priority))
			losers = append(losers, loserLoop.Name+"/"+cand.act.Kind)
		}
		if len(losers) > 0 {
			records = append(records, ConflictRecord{
				Subject: subject,
				Winner:  members[win.mi].loop.Name + "/" + win.act.Kind,
				Losers:  losers,
			})
		}
	}
	return records
}

// beats reports whether candidate x wins over the current winner y; ties
// keep y (earlier registration, then earlier plan position, wins).
func (a *Arbiter) beats(members []member, x, y candidate) bool {
	return a.policy.Beats(x.act.Kind, members[x.mi].priority, y.act.Kind, members[y.mi].priority)
}
