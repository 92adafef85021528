package cluster

import (
	"fmt"
	"strconv"
	"testing"
	"time"

	"autoloop/internal/bus"
	"autoloop/internal/control"
	"autoloop/internal/fleet"
)

// BenchmarkRingOwner is the placement hot path: one consistent-hash lookup
// against an 8-member ring (hash + binary search over 1024 virtual points).
func BenchmarkRingOwner(b *testing.B) {
	r := NewRing()
	for i := 0; i < 8; i++ {
		r.Add("worker-" + strconv.Itoa(i))
	}
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = "group-" + strconv.Itoa(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r.Owner(keys[i%len(keys)]) == "" {
			b.Fatal("empty owner")
		}
	}
}

// BenchmarkRingMembership is the failover path: removing a member and
// re-adding it, each a full point-slice rebuild and resort.
func BenchmarkRingMembership(b *testing.B) {
	r := NewRing()
	for i := 0; i < 8; i++ {
		r.Add("worker-" + strconv.Itoa(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Remove("worker-0")
		r.Add("worker-0")
	}
}

// BenchmarkArbiterDecide is the per-round cross-node arbitration cost: one
// four-action digest against a grant table holding other workers' subjects.
func BenchmarkArbiterDecide(b *testing.B) {
	a := NewArbiter(time.Hour)
	now := time.Unix(0, 0)
	a.Decide(Digest{Worker: "w9", Seq: 1, Actions: []fleet.ActionDigest{
		{Loop: "other", Kind: "cap.power", Subject: "rack7", Priority: 5},
	}}, now)
	d := Digest{Worker: "w1", Actions: []fleet.ActionDigest{
		{Loop: "l1", Kind: "cap.power", Subject: "plant", Priority: 5},
		{Loop: "l2", Kind: "migrate.ost", Subject: "ost3", Priority: 3},
		{Loop: "l3", Kind: "extend.job", Subject: "job42", Priority: 1},
		{Loop: "l4", Kind: "cap.power", Subject: "rack7", Priority: 9},
	}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Seq = uint64(i)
		if v := a.Decide(d, now); len(v.Deny) != 4 {
			b.Fatal("short verdict")
		}
	}
}

// BenchmarkScatterGather is one full fan-out/gather over the in-process bus:
// correlation-ID bookkeeping, N responder dispatches, and the ordered merge —
// the per-request floor a coordinator pays before any wire latency.
func BenchmarkScatterGather(b *testing.B) {
	for _, n := range []int{4} {
		b.Run(fmt.Sprintf("workers=%d", n), func(b *testing.B) {
			bb := bus.New()
			s := newScatter(bb, "bench", 5*time.Second)
			defer bb.Subscribe(TopicReply, s.handleReply)()
			workers := make([]string, n)
			for i := range workers {
				workers[i] = "w" + strconv.Itoa(i)
			}
			defer bb.Subscribe(TopicFanout, func(env bus.Envelope) {
				var f Fanout
				if bus.DecodePayload(env, &f) != nil {
					return
				}
				bb.Publish(bus.Envelope{Topic: TopicReply, Payload: FanReply{
					Worker: f.Worker, ID: f.ID,
					Control: &control.Reply{Op: control.OpList, OK: true},
				}})
			})()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				replies := s.Fan(workers, func(w, id string) Fanout {
					return Fanout{Worker: w, ID: id, Control: &control.Request{Op: control.OpList}}
				})
				for _, r := range replies {
					if r.Err != "" {
						b.Fatal(r.Err)
					}
				}
			}
		})
	}
}

// BenchmarkClusterFanoutTCP is the same gather over real loopback TCP
// bridges: three worker processes' worth of encode/decode and socket round
// trips per operator request — the number a multi-node list or query
// actually costs.
func BenchmarkClusterFanoutTCP(b *testing.B) {
	cb := bus.New()
	s := newScatter(cb, "bench", 10*time.Second)
	defer cb.Subscribe(TopicReply, s.handleReply)()
	srv, err := bus.NewServer("127.0.0.1:0", CoordExportPattern, cb)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()

	workers := []string{"w1", "w2", "w3"}
	for _, id := range workers {
		id := id
		wb := bus.New()
		client, err := bus.Dial(srv.Addr(), WorkerExportPattern, wb)
		if err != nil {
			b.Fatal(err)
		}
		defer client.Close()
		defer wb.Subscribe(TopicFanout, func(env bus.Envelope) {
			var f Fanout
			if bus.DecodePayload(env, &f) != nil || f.Worker != id {
				return
			}
			wb.Publish(bus.Envelope{Topic: TopicReply, Payload: FanReply{
				Worker: id, ID: f.ID,
				Control: &control.Reply{Op: control.OpList, OK: true},
			}})
		})()
	}

	// One warm-up gather proves every bridge is live before timing starts.
	warm := s.Fan(workers, func(w, id string) Fanout {
		return Fanout{Worker: w, ID: id, Control: &control.Request{Op: control.OpList}}
	})
	for _, r := range warm {
		if r.Err != "" {
			b.Fatalf("warm-up: %s: %s", r.Worker, r.Err)
		}
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replies := s.Fan(workers, func(w, id string) Fanout {
			return Fanout{Worker: w, ID: id, Control: &control.Request{Op: control.OpList}}
		})
		for _, r := range replies {
			if r.Err != "" {
				b.Fatal(r.Err)
			}
		}
	}
}
