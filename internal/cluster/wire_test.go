package cluster

import (
	"testing"
	"time"

	"autoloop/internal/bus"
	"autoloop/internal/control"
	"autoloop/internal/fleet"
)

// seedEnvelopes is one well-formed envelope per cluster topic — the fuzz
// seed corpus.
func seedEnvelopes(t testing.TB) [][]byte {
	envs := []bus.Envelope{
		{Topic: TopicHello, Source: "w1", Payload: Hello{Worker: "w1", Groups: []string{"power"}}},
		{Topic: TopicHeartbeat, Source: "w1", Payload: Heartbeat{Worker: "w1", Seq: 3, Groups: 2, Series: 10, Samples: 1000, Rounds: 7}},
		{Topic: TopicAck, Source: "w1", Payload: Ack{Worker: "w1", ID: "asg-1", Group: "power", OK: true, Loops: []string{"power"}}},
		{Topic: TopicDigest, Source: "w1", Payload: Digest{Worker: "w1", Seq: 1, Actions: []fleet.ActionDigest{
			{Loop: "power", Kind: "cap.power", Subject: "plant", Priority: 5, Amount: 2.5, Confidence: 0.9},
		}}},
		{Topic: TopicReply, Source: "w1", Payload: FanReply{Worker: "w1", ID: "fan-1", Control: &control.Reply{Op: "list", OK: true}}},
		{Topic: TopicAssign, Source: "coordinator", Payload: Assign{Worker: "w1", ID: "asg-1", Group: "power", Spec: control.LoopSpec{Case: "power"}}},
		{Topic: TopicRevoke, Source: "coordinator", Payload: Revoke{Worker: "w1", ID: "rev-1", Group: "power"}},
		{Topic: TopicVerdict, Source: "coordinator", Payload: Verdict{Worker: "w1", Seq: 1, Deny: []bool{true}, Reasons: []string{"lost plant"}}},
		{Topic: TopicFanout, Source: "coordinator", Payload: Fanout{Worker: "w1", ID: "fan-1", Control: &control.Request{Op: "list"}}},
	}
	lines := make([][]byte, 0, len(envs))
	for _, env := range envs {
		line, err := bus.Encode(env)
		if err != nil {
			t.Fatalf("encode %s: %v", env.Topic, err)
		}
		lines = append(lines, line)
	}
	return lines
}

// FuzzClusterDecode feeds raw bridge lines down the path the product runs:
// bus.Decode, then a publish onto a bus with a Coordinator attached (its
// hello, heartbeat, ack, digest and reply handlers, and the control.v1 and
// tsdb.query handlers it serves operators), then a Tick. Whatever arrives
// off the TCP socket must be rejected or handled, never panic. Seeds cover
// every cluster topic, a spawn, a query, and malformed shapes.
func FuzzClusterDecode(f *testing.F) {
	for _, line := range seedEnvelopes(f) {
		f.Add(line)
	}
	f.Add([]byte(`{"topic":"control.v1.req","payload":{"id":"r1","op":"spawn","spec":{"case":"power","name":"p2","mode":"autonomous"}}}`))
	f.Add([]byte(`{"topic":"tsdb.query","payload":{"id":"q1","metric":"node.cpu.util","latest":true}}`))
	f.Add([]byte(`{"topic":"control.v1.cluster.w.hello","payload":42}`))
	f.Add([]byte(`{"topic":"control.v1.cluster.c.assign","payload":{"spec":{"case":[]}}}`))
	f.Add([]byte(`{"topic":"control.v1.cluster.w.digest","payload":{"actions":[{"priority":"high"}]}}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, line []byte) {
		env, err := bus.Decode(line)
		if err != nil {
			return
		}
		if env.Topic == "" {
			t.Fatal("decoded an envelope without a topic")
		}
		b := bus.New()
		c := NewCoordinator(b, Options{})
		defer c.Close()
		b.Publish(env)
		c.Tick(time.Now())
		// One envelope admits at most one worker and one spec.
		if s := c.Stats(); s.Members > 1 || s.Specs > 1 {
			t.Fatalf("one envelope produced %d members, %d specs", s.Members, s.Specs)
		}
	})
}
