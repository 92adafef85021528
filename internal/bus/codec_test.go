package bus

import (
	"fmt"
	"math"
	"testing"
	"time"
)

// The fan* types mirror the shape of a cluster worker's scatter-gather
// answer (cluster.FanReply carrying a tsdb.QueryResponse), the largest
// payload that crosses the wire in a running cluster.
type fanSample struct {
	TimeMS int64   `json:"t_ms"`
	Value  float64 `json:"v"`
}

type fanSeries struct {
	Metric  string            `json:"metric"`
	Labels  map[string]string `json:"labels,omitempty"`
	Samples []fanSample       `json:"samples"`
}

type fanQuery struct {
	ID     string      `json:"id,omitempty"`
	Series []fanSeries `json:"series,omitempty"`
}

type fanReply struct {
	Worker string    `json:"worker"`
	ID     string    `json:"id"`
	Query  *fanQuery `json:"query,omitempty"`
}

// fanReplyLine encodes a worker's answer of 8 series × 60 samples, about
// 18 KB on the wire.
func fanReplyLine(tb testing.TB) []byte {
	tb.Helper()
	q := &fanQuery{ID: "q-000042"}
	for s := 0; s < 8; s++ {
		ser := fanSeries{
			Metric: "node.cpu.util",
			Labels: map[string]string{"node": fmt.Sprintf("n%04d", s), "rack": fmt.Sprintf("r%02d", s/4)},
		}
		for i := 0; i < 60; i++ {
			ser.Samples = append(ser.Samples, fanSample{
				TimeMS: int64(3_600_000 + 15_000*i),
				Value:  40 + 0.37*float64(s) + math.Sin(float64(i)/7)*12.5,
			})
		}
		q.Series = append(q.Series, ser)
	}
	line, err := Encode(Envelope{Topic: "cluster.fan.reply", Time: 90 * time.Second, Source: "w1",
		Payload: fanReply{Worker: "w1", ID: "q-000042", Query: q}})
	if err != nil {
		tb.Fatal(err)
	}
	return line[:len(line)-1]
}

func decodeFanReply(tb testing.TB, line []byte) fanReply {
	env, err := Decode(line)
	if err != nil {
		tb.Fatal(err)
	}
	var r fanReply
	if err := DecodePayload(env, &r); err != nil {
		tb.Fatal(err)
	}
	return r
}

// BenchmarkWireReplyDecode reads one scatter-gather answer off the wire the
// way the coordinator does: Decode the line, then DecodePayload into the
// reply type.
func BenchmarkWireReplyDecode(b *testing.B) {
	line := fanReplyLine(b)
	b.SetBytes(int64(len(line)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decodeFanReply(b, line)
	}
}

// TestWireDecodeAllocs bounds the allocations of reading a wire reply: the
// payload is parsed once, into its receiver's type, so the count is about
// the objects of the reply itself (series, label maps, sample slices).
// Parsing into a generic value tree first costs some 6,200.
func TestWireDecodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gate is meaningless under -race")
	}
	line := fanReplyLine(t)
	if r := decodeFanReply(t, line); len(r.Query.Series) != 8 || len(r.Query.Series[7].Samples) != 60 {
		t.Fatalf("decoded reply has the wrong shape: %+v", r)
	}
	const bound = 200
	if avg := testing.AllocsPerRun(50, func() { decodeFanReply(t, line) }); avg > bound {
		t.Fatalf("decoding a wire reply allocates %.0f times, want at most %d", avg, bound)
	}
}

// TestWirePayloadKeepsInt64 sends integers that a float64 cannot hold
// exactly across the TCP bridge, both ways: they must arrive exact.
func TestWirePayloadKeepsInt64(t *testing.T) {
	type wide struct {
		D time.Duration `json:"d"`
		U uint64        `json:"u"`
	}
	want := wide{D: 1<<53 + 1, U: 1<<63 + 12345}

	serverBus, clientBus := New(), New()
	srv, err := NewServer("127.0.0.1:0", "down.*", serverBus)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr(), "up.*", clientBus)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	waitUntil(t, "connection registered", func() bool { return srv.NumClients() == 1 })

	got := make(chan Envelope, 2)
	keep := func(env Envelope) { got <- env }
	clientBus.Subscribe("down.wide", keep)
	serverBus.Subscribe("up.wide", keep)
	for _, send := range []struct {
		b     *Bus
		topic string
	}{{serverBus, "down.wide"}, {clientBus, "up.wide"}} {
		send.b.Publish(Envelope{Topic: send.topic, Payload: want})
		select {
		case env := <-got:
			var w wide
			if err := DecodePayload(env, &w); err != nil {
				t.Fatal(err)
			}
			if w != want {
				t.Errorf("%s: got d=%d u=%d, want d=%d u=%d", send.topic, w.D, w.U, want.D, want.U)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: timed out waiting for the envelope", send.topic)
		}
	}
}

// TestEncodeBytesUnchanged pins the wire line: an in-process envelope
// encodes to the same bytes as always, a line a peer wrote decodes, and a
// decoded envelope re-encodes to the line it came from, carrying the
// sender's payload bytes rather than a re-marshaled copy.
func TestEncodeBytesUnchanged(t *testing.T) {
	type verdict struct {
		Worker string `json:"worker"`
		Seq    uint64 `json:"seq"`
		Grant  bool   `json:"grant"`
		Note   string `json:"note,omitempty"`
	}
	env := Envelope{Topic: "cluster.verdict", Time: 90 * time.Second, Source: "coord",
		Payload: verdict{Worker: "w2", Seq: 7, Grant: true, Note: "a<b&c"}}
	const want = `{"topic":"cluster.verdict","time":90000000000,"source":"coord",` +
		`"payload":{"worker":"w2","seq":7,"grant":true,"note":"a\u003cb\u0026c"}}` + "\n"
	line, err := Encode(env)
	if err != nil {
		t.Fatal(err)
	}
	if string(line) != want {
		t.Fatalf("Encode wrote\n%s want\n%s", line, want)
	}
	got, err := Decode([]byte(want[:len(want)-1]))
	if err != nil {
		t.Fatal(err)
	}
	var v verdict
	if err := DecodePayload(got, &v); err != nil || v != env.Payload {
		t.Fatalf("decoded payload %+v (%v), want %+v", v, err, env.Payload)
	}
	if again, err := Encode(got); err != nil || string(again) != want {
		t.Fatalf("re-encoded a decoded line as\n%s (%v) want\n%s", again, err, want)
	}
	// A peer's field order is the sender's, not sorted map keys.
	const peer = `{"topic":"t","time":0,"payload":{"z":1,"a":[2,3]}}`
	got, err = Decode([]byte(peer))
	if err != nil {
		t.Fatal(err)
	}
	if again, err := Encode(got); err != nil || string(again) != peer+"\n" {
		t.Fatalf("forwarded %q as %q (%v)", peer, again, err)
	}
}

// TestPublishAllocs checks that a publish reaching a few handlers, through
// the exact index, the prefix trie or both, allocates nothing.
func TestPublishAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gate is meaningless under -race")
	}
	patterns := []string{"a.b.c", "a.*", "*", "a.b.*"}
	for n := 1; n <= len(patterns); n++ {
		b := New()
		calls := 0
		for _, p := range patterns[:n] {
			b.Subscribe(p, func(Envelope) { calls++ })
		}
		b.Subscribe("other.topic", func(Envelope) { t.Error("delivered to a non-matching handler") })
		env := Envelope{Topic: "a.b.c", Payload: &calls}
		if avg := testing.AllocsPerRun(100, func() { b.Publish(env) }); avg != 0 {
			t.Errorf("publish to %d handlers allocates %.1f times, want 0", n, avg)
		}
		if calls == 0 || calls%n != 0 {
			t.Errorf("%d handlers: %d deliveries", n, calls)
		}
	}
}
