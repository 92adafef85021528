package cluster

import (
	"strings"
	"testing"
	"time"

	"autoloop/internal/fleet"
)

func digest(worker string, seq uint64, actions ...fleet.ActionDigest) Digest {
	return Digest{Worker: worker, Seq: seq, Actions: actions}
}

func TestArbiterCrossNodeConflict(t *testing.T) {
	a := NewArbiter(2 * time.Second)
	now := time.Unix(50, 0)

	// w1's power-cap on the plant wins the grant.
	v := a.Decide(digest("w1", 1, fleet.ActionDigest{
		Loop: "power", Kind: "cap.power", Subject: "plant", Priority: 5,
	}), now)
	if len(v.Deny) != 1 || v.Deny[0] {
		t.Fatalf("first grant denied: %+v", v)
	}

	// w2's contradicting raise on the same subject, lower priority, inside
	// the window: denied with the holder named.
	v = a.Decide(digest("w2", 1, fleet.ActionDigest{
		Loop: "boost", Kind: "raise.power", Subject: "plant", Priority: 3,
	}), now.Add(time.Second))
	if !v.Deny[0] {
		t.Fatal("conflicting lower-priority action was not denied")
	}
	if !strings.Contains(v.Reasons[0], "w1") {
		t.Fatalf("denial reason does not name the holder: %q", v.Reasons[0])
	}
	if a.Denied() != 1 {
		t.Fatalf("Denied = %d, want 1", a.Denied())
	}

	// A higher-priority contradiction takes the grant over.
	v = a.Decide(digest("w3", 1, fleet.ActionDigest{
		Loop: "urgent", Kind: "raise.power", Subject: "plant", Priority: 9,
	}), now.Add(time.Second))
	if v.Deny[0] {
		t.Fatal("higher-priority action was denied")
	}

	// Past the window the grant lapses and anyone may act.
	v = a.Decide(digest("w1", 2, fleet.ActionDigest{
		Loop: "power", Kind: "cap.power", Subject: "plant", Priority: 1,
	}), now.Add(10*time.Second))
	if v.Deny[0] {
		t.Fatal("action denied after the grant window lapsed")
	}
}

func TestArbiterSameWorkerAndSameKindAllowed(t *testing.T) {
	a := NewArbiter(2 * time.Second)
	now := time.Unix(0, 0)
	a.Decide(digest("w1", 1, fleet.ActionDigest{
		Loop: "l1", Kind: "cap.power", Subject: "plant", Priority: 5,
	}), now)

	// Same worker, contradicting kind: its local arbiter already ruled.
	v := a.Decide(digest("w1", 2, fleet.ActionDigest{
		Loop: "l2", Kind: "raise.power", Subject: "plant", Priority: 1,
	}), now)
	if v.Deny[0] {
		t.Fatal("same-worker action denied by the cross-node arbiter")
	}

	// Different worker, same kind: redundancy, not contradiction.
	v = a.Decide(digest("w2", 1, fleet.ActionDigest{
		Loop: "l3", Kind: "raise.power", Subject: "plant", Priority: 1,
	}), now)
	if v.Deny[0] {
		t.Fatal("same-kind action denied by the cross-node arbiter")
	}
}

func TestArbiterForgetDropsDeadWorkersGrants(t *testing.T) {
	a := NewArbiter(time.Hour) // a window long enough to otherwise block
	now := time.Unix(0, 0)
	a.Decide(digest("w1", 1, fleet.ActionDigest{
		Loop: "l", Kind: "cap.power", Subject: "plant", Priority: 5,
	}), now)
	a.Forget("w1")
	v := a.Decide(digest("w2", 1, fleet.ActionDigest{
		Loop: "l", Kind: "raise.power", Subject: "plant", Priority: 1,
	}), now.Add(time.Second))
	if v.Deny[0] {
		t.Fatal("dead worker's grant still held after Forget")
	}
}

func TestArbiterSubjectlessActionsIgnored(t *testing.T) {
	a := NewArbiter(time.Second)
	v := a.Decide(digest("w1", 1, fleet.ActionDigest{Loop: "l", Kind: "k"}), time.Unix(0, 0))
	if v.Deny[0] {
		t.Fatal("subjectless action denied")
	}
	if a.Denied() != 0 {
		t.Fatal("subjectless action counted as denied")
	}
}
