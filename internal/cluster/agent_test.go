package cluster

import (
	"testing"
	"time"

	"autoloop/internal/bus"
	"autoloop/internal/control"
	"autoloop/internal/fleet"
)

// TestLinkUpBackfillsOnce drives the link maintainer's path: link down, a
// few rounds buffer their digests, and link up re-delivers each buffered
// digest exactly once, flagged Backfill, followed by one Hello. A second
// link-up finds nothing to deliver.
func TestLinkUpBackfillsOnce(t *testing.T) {
	b := bus.New()
	ctl := control.NewService(control.NewRegistry(), &control.Env{}, fleet.New(1), time.Minute)
	a, err := NewAgent(b, ctl, nil, AgentOptions{ID: "w1", Heartbeat: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	var digests []Digest
	hellos := 0
	b.Subscribe(TopicDigest, func(e bus.Envelope) {
		var d Digest
		if err := bus.DecodePayload(e, &d); err != nil {
			t.Errorf("digest payload: %v", err)
		}
		digests = append(digests, d)
	})
	b.Subscribe(TopicHello, func(bus.Envelope) { hellos++ })

	a.SetLinkState(false)
	if !a.Degraded() {
		t.Fatal("link down did not enter degraded mode")
	}
	const rounds = 3
	for i := 1; i <= rounds; i++ {
		if deny := a.arbitrate(time.Duration(i)*time.Minute, []fleet.ActionDigest{{Loop: "l", Kind: "act", Subject: "s"}}); deny != nil {
			t.Fatalf("round %d: degraded round returned a verdict %v", i, deny)
		}
	}
	if len(digests) != 0 || hellos != 0 {
		t.Fatalf("while down: %d digests, %d hellos published, want none", len(digests), hellos)
	}

	a.SetLinkState(true)
	if a.Degraded() {
		t.Fatal("link up did not leave degraded mode")
	}
	if len(digests) != rounds || hellos != 1 {
		t.Fatalf("link up published %d digests and %d hellos, want %d and 1", len(digests), hellos, rounds)
	}
	for i, d := range digests {
		if !d.Backfill || d.Seq != uint64(i+1) || d.Worker != "w1" {
			t.Errorf("backfill %d = %+v, want seq %d from w1 flagged Backfill", i, d, i+1)
		}
	}
	if m := a.Metrics(); m.DigestsBuffered != rounds || m.DigestsBackfilled != rounds || m.DegradedEntries != 1 {
		t.Errorf("metrics = %+v", m)
	}

	a.SetLinkState(true)
	if len(digests) != rounds || hellos != 1 {
		t.Errorf("second link up published %d digests and %d hellos, want nothing new", len(digests)-rounds, hellos-1)
	}
}
