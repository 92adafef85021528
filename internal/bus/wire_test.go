package bus

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"
)

// waitUntil polls cond for up to 5s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// saturate floods b with large export envelopes until the wedged client's
// kernel buffer and outbox are full and the server starts dropping frames.
func saturate(t *testing.T, b *Bus, srv *Server) {
	t.Helper()
	big := strings.Repeat("x", 64*1024)
	deadline := time.Now().Add(20 * time.Second)
	for srv.DroppedFrames() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("timed out saturating the wedged client's outbox")
		}
		b.Publish(Envelope{Topic: "export.big", Payload: big})
	}
}

// TestStalledClientDoesNotStallPublish is the broadcast regression test: a
// connected client that never reads must cost dropped frames on its own
// connection, not publish latency on the bus. The old broadcast held the
// server mutex across a blocking 2s-deadline write per client, so a single
// wedged `nc` froze every Publish (and with it modad's simulation tick).
func TestStalledClientDoesNotStallPublish(t *testing.T) {
	b := New()
	srv, err := NewServer("127.0.0.1:0", "export.*", b)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// A wedged client: connects, never reads.
	wedged, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer wedged.Close()
	waitUntil(t, "connection registered", func() bool { return srv.NumClients() == 1 })

	// Flood with large envelopes until the kernel socket buffer and the
	// connection's outbox are both full and frames start dropping.
	saturate(t, b, srv)

	// With the client fully wedged, publish latency must stay flat: the old
	// code blocked ~2s per publish here.
	start := time.Now()
	for i := 0; i < 500; i++ {
		b.Publish(Envelope{Topic: "export.ping", Payload: i})
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("500 publishes with a wedged client took %v; broadcast is blocking the bus", elapsed)
	}
	if srv.DroppedFrames() == 0 {
		t.Fatal("expected dropped frames for the wedged client")
	}
}

// TestHealthyClientUnaffectedByWedgedPeer: with one wedged client connected,
// a draining client still receives envelopes promptly.
func TestHealthyClientUnaffectedByWedgedPeer(t *testing.T) {
	b := New()
	srv, err := NewServer("127.0.0.1:0", "export.*", b)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	wedged, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer wedged.Close()

	healthyBus := New()
	received := make(chan Envelope, 64)
	healthyBus.Subscribe("export.*", func(e Envelope) {
		select {
		case received <- e:
		default:
		}
	})
	cli, err := Dial(srv.Addr(), "up.*", healthyBus)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	waitUntil(t, "both connections registered", func() bool { return srv.NumClients() == 2 })

	// Saturate the wedged client. The healthy client may drop some of the
	// flood too; the point is that it still gets envelopes afterwards.
	saturate(t, b, srv)

	// The flood may have filled (and dropped at) the healthy subscriber's
	// test channel too; keep draining and re-pinging until a ping lands.
	waitUntil(t, "healthy client delivery", func() bool {
		b.Publish(Envelope{Topic: "export.ping", Payload: "pong"})
		for {
			select {
			case e := <-received:
				if e.Topic == "export.ping" {
					return true
				}
			default:
				return false
			}
		}
	})
}

// TestServerSurfacesOverlongLine: a client line beyond the scanner limit
// must be counted as a read error, not treated as a silent hang-up.
func TestServerSurfacesOverlongLine(t *testing.T) {
	b := New()
	srv, err := NewServer("127.0.0.1:0", "export.*", b)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	line := append(bytes.Repeat([]byte("a"), maxLineBytes+1024), '\n')
	if _, err := conn.Write(line); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "read error counted", func() bool { return srv.ReadErrors() == 1 })
}

// TestClientSurfacesOverlongLine: an overlong server line surfaces through
// Client.Err as bufio.ErrTooLong instead of a silent disconnect.
func TestClientSurfacesOverlongLine(t *testing.T) {
	b := New()
	srv, err := NewServer("127.0.0.1:0", "export.*", b)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cli, err := Dial(srv.Addr(), "up.*", New())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	waitUntil(t, "connection registered", func() bool { return srv.NumClients() == 1 })

	// An envelope whose encoded line exceeds the client's scanner limit.
	b.Publish(Envelope{Topic: "export.huge", Payload: strings.Repeat("x", maxLineBytes+1024)})
	waitUntil(t, "client error surfaced", func() bool { return cli.Err() != nil })
	if !errors.Is(cli.Err(), bufio.ErrTooLong) {
		t.Fatalf("Err() = %v, want bufio.ErrTooLong", cli.Err())
	}
}

// TestCleanCloseLeavesNoError: closing the client (or the server closing the
// connection) must not report a transport error.
func TestCleanCloseLeavesNoError(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", "export.*", New())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr(), "up.*", New())
	if err != nil {
		t.Fatal(err)
	}
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if err := cli.Err(); err != nil {
		t.Fatalf("Err() after clean close = %v", err)
	}
	if n := srv.ReadErrors(); n != 0 {
		t.Fatalf("server ReadErrors after clean close = %d", n)
	}
}

// TestMatchTopic pins the exported matcher to the subscription semantics.
func TestMatchTopic(t *testing.T) {
	for _, tc := range []struct {
		pattern, topic string
		want           bool
	}{
		{"a.b", "a.b", true},
		{"a.b", "a.b.c", false},
		{"a.*", "a.b.c", true},
		{"*", "anything", true},
		{"a.*", "b.c", false},
	} {
		if got := MatchTopic(tc.pattern, tc.topic); got != tc.want {
			t.Errorf("MatchTopic(%q, %q) = %v, want %v", tc.pattern, tc.topic, got, tc.want)
		}
	}
}

// TestServerSubscribesOnlyWhileClientsConnected: an idle server holds no
// bus subscription, so its export envelopes reach no handler and none is
// encoded; the first client subscribes it before its first line is read, so
// the reply published while that line is handled reaches the client; the
// last client to leave, or Close, cancels the subscription again.
func TestServerSubscribesOnlyWhileClientsConnected(t *testing.T) {
	b := New()
	b.Subscribe("req.ping", func(env Envelope) {
		b.Publish(Envelope{Topic: "export.pong", Payload: env.Payload})
	})
	srv, err := NewServer("127.0.0.1:0", "export.*", b)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	idle := func(when string) {
		t.Helper()
		if b.HasReceiver("export.pong") {
			t.Fatalf("%s: the server holds its export subscription", when)
		}
		_, d0 := b.Stats()
		b.Publish(Envelope{Topic: "export.idle"})
		if _, d1 := b.Stats(); d1 != d0 {
			t.Fatalf("%s: an export envelope reached %d handlers, want none (nothing to encode)", when, d1-d0)
		}
	}
	// ping dials, sends a request as its first line at once, whether or not
	// the server has accepted the connection yet, and reads the reply.
	ping := func(n int) net.Conn {
		t.Helper()
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fmt.Fprintf(conn, `{"topic":"req.ping","payload":%d}`+"\n", n); err != nil {
			t.Fatal(err)
		}
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		line, err := bufio.NewReader(conn).ReadBytes('\n')
		if err != nil {
			t.Fatalf("client %d: no reply to its first line: %v", n, err)
		}
		env, err := Decode(line)
		var got float64
		if err == nil {
			err = DecodePayload(env, &got)
		}
		if err != nil || env.Topic != "export.pong" || got != float64(n) {
			t.Fatalf("client %d: reply %q (%v), want export.pong carrying %d", n, line, err, n)
		}
		return conn
	}
	idle("before any client")
	for n := 1; n <= 2; n++ {
		ping(n).Close()
		waitUntil(t, "the last client's departure", func() bool { return srv.NumClients() == 0 })
		idle(fmt.Sprintf("after client %d left", n))
	}
	conn := ping(3)
	defer conn.Close()
	srv.Close()
	idle("after Close")
}
