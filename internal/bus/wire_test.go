package bus

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
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

// TestClientSurfacesOverlongLine: an overlong server line drops the link
// with bufio.ErrTooLong as the reason Logf reports, instead of a silent
// disconnect, and counts as one dropped link.
func TestClientSurfacesOverlongLine(t *testing.T) {
	b := New()
	srv, err := NewServer("127.0.0.1:0", "export.*", b)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	reasons := make(chan error, 16)
	cli, err := DialWith(srv.Addr(), "up.*", New(), ReconnectOptions{
		Logf: func(format string, args ...any) {
			for _, a := range args {
				if err, ok := a.(error); ok {
					select {
					case reasons <- err:
					default:
					}
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	waitUntil(t, "connection registered", func() bool { return srv.NumClients() == 1 })

	// An envelope whose encoded line exceeds the client's scanner limit.
	b.Publish(Envelope{Topic: "export.huge", Payload: strings.Repeat("x", maxLineBytes+1024)})
	select {
	case err := <-reasons:
		if !errors.Is(err, bufio.ErrTooLong) {
			t.Fatalf("logged reason %v, want bufio.ErrTooLong", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for the dropped link's reason")
	}
	if _, _, drops, _ := cli.Stats(); drops != 1 {
		t.Fatalf("drops = %d, want 1", drops)
	}
}

// TestCleanCloseLeavesNoError: closing the client must count no dropped
// link or frame, and leave no read error on the server.
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
	if _, _, drops, dropped := cli.Stats(); drops != 0 || dropped != 0 {
		t.Fatalf("after clean close: %d dropped links, %d dropped frames", drops, dropped)
	}
	if n := srv.ReadErrors(); n != 0 {
		t.Fatalf("server ReadErrors after clean close = %d", n)
	}
}

// TestWedgedServerDoesNotStallClientPublish is the client-side twin of
// TestStalledClientDoesNotStallPublish: a server that accepts and never
// reads must cost the client dropped frames, not publish latency. A client
// that wrote on the publisher's goroutine waited out the write deadline on
// every publish once the socket buffer was full.
func TestWedgedServerDoesNotStallClientPublish(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		if conn, err := ln.Accept(); err == nil {
			accepted <- conn
		}
	}()
	b := New()
	cli, err := Dial(ln.Addr().String(), "export.*", b)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		// Unwedge every link before Close flushes it: closing the listener
		// resets a redialed link it never accepted.
		ln.Close()
		(<-accepted).Close()
		cli.Close()
	}()

	env := Envelope{Topic: "export.big", Payload: strings.Repeat("x", 64*1024)}
	limit := time.Second
	if raceEnabled {
		// The race detector slows the encoding itself several times over;
		// allow for what encoding the same frames costs here.
		start := time.Now()
		for i := 0; i < 1000; i++ {
			_, _ = Encode(env)
		}
		limit += time.Since(start)
	}
	took := make(chan time.Duration, 1)
	go func() {
		start := time.Now()
		for i := 0; i < 1000; i++ {
			b.Publish(env)
		}
		took <- time.Since(start)
	}()
	select {
	case d := <-took:
		if d > limit {
			t.Fatalf("1000 publishes to a wedged server took %v (limit %v); the client is blocking the bus", d, limit)
		}
	case <-time.After(limit + 4*time.Second):
		t.Fatal("1000 publishes to a wedged server still running; the client is blocking the bus")
	}
	if _, _, _, dropped := cli.Stats(); dropped == 0 {
		t.Fatal("expected dropped frames toward the wedged server")
	}
}

// readLines reads newline-terminated frames from conn until EOF and sends
// how many arrived.
func readLines(conn net.Conn, n chan<- int) {
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 64*1024), maxLineBytes)
	lines := 0
	for sc.Scan() {
		lines++
	}
	n <- lines
}

// The close-flush tests queue flushFrames frames of flushBytes each: under
// outboxDepth, so none is dropped, and more bytes than the loopback socket
// buffers hold, so most are still queued when Close runs. The peer starts
// reading only once Close has begun.
const (
	flushFrames = 200
	flushBytes  = 64 * 1024
)

func awaitLines(t *testing.T, n <-chan int) {
	t.Helper()
	select {
	case got := <-n:
		if got != flushFrames {
			t.Fatalf("peer read %d frames before the hang-up, want %d", got, flushFrames)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("peer still connected 5s after Close")
	}
}

// TestClientCloseFlushesQueuedFrames: frames published just before
// Client.Close reach a server that is reading, before the hang-up.
func TestClientCloseFlushesQueuedFrames(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	start, n := make(chan struct{}), make(chan int, 1)
	go func() {
		if conn, err := ln.Accept(); err == nil {
			defer conn.Close()
			<-start
			readLines(conn, n)
		}
	}()
	b := New()
	cli, err := Dial(ln.Addr().String(), "export.*", b)
	if err != nil {
		t.Fatal(err)
	}
	env := Envelope{Topic: "export.flush", Payload: strings.Repeat("x", flushBytes)}
	for i := 0; i < flushFrames; i++ {
		b.Publish(env)
	}
	// Close waits for its flush, which waits for the peer: run it aside
	// and let the peer read once it has begun.
	closed := make(chan struct{})
	go func() { cli.Close(); close(closed) }()
	waitUntil(t, "Close to begin", func() bool {
		cli.mu.Lock()
		defer cli.mu.Unlock()
		return cli.closed
	})
	close(start)
	awaitLines(t, n)
	<-closed
}

// TestServerCloseFlushesQueuedFrames: frames broadcast just before
// Server.Close reach a client that is reading, before the hang-up.
func TestServerCloseFlushesQueuedFrames(t *testing.T) {
	b := New()
	srv, err := NewServer("127.0.0.1:0", "export.*", b)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	waitUntil(t, "connection registered", func() bool { return srv.NumClients() == 1 })
	env := Envelope{Topic: "export.flush", Payload: strings.Repeat("x", flushBytes)}
	for i := 0; i < flushFrames; i++ {
		b.Publish(env)
	}
	srv.Close()
	n := make(chan int, 1)
	go readLines(conn, n)
	awaitLines(t, n)
}

// TestClosedBridgeLeavesNoGoroutines: once both ends of a bridge have
// closed — clients before the server, and a client left redialing a closed
// server — every link's reader and writer goroutine has exited.
func TestClosedBridgeLeavesNoGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()
	sb := New()
	srv, err := NewServer("127.0.0.1:0", "down.*", sb)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan struct{}, 64)
	sb.Subscribe("up.*", func(Envelope) { got <- struct{}{} })
	var buses []*Bus
	var clients []*Client
	for i := 0; i < 3; i++ {
		cb := New()
		cb.Subscribe("down.*", func(Envelope) { got <- struct{}{} })
		cli, err := Dial(srv.Addr(), "up.*", cb)
		if err != nil {
			t.Fatal(err)
		}
		buses, clients = append(buses, cb), append(clients, cli)
	}
	waitUntil(t, "three clients registered", func() bool { return srv.NumClients() == 3 })
	// One frame each way on every link: server to all three, each client
	// to the server.
	sb.Publish(Envelope{Topic: "down.ping"})
	for _, cb := range buses {
		cb.Publish(Envelope{Topic: "up.ping"})
	}
	for i := 0; i < 6; i++ {
		select {
		case <-got:
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of 6 frames crossed the bridge", i)
		}
	}
	clients[0].Close()
	clients[1].Close()
	srv.Close()
	waitUntil(t, "the last client's link to drop", func() bool {
		_, _, drops, _ := clients[2].Stats()
		return drops == 1
	})
	clients[2].Close()
	waitUntil(t, "goroutines back to baseline", func() bool { return runtime.NumGoroutine() <= baseline })
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

// TestWedgedPeerDropNamesWriteTimeout: a link whose peer accepts and never
// reads hangs up once a write misses its deadline, and says so. On the
// client the dropped link's Logf reason is that write's timeout; on the
// server the hang-up is not counted as a read error.
func TestWedgedPeerDropNamesWriteTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() { // accepts every dial, reads nothing
		var conns []net.Conn
		defer func() {
			for _, c := range conns {
				c.Close()
			}
		}()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			conns = append(conns, conn)
		}
	}()
	reasons := make(chan error, 16)
	b := New()
	cli, err := DialWith(ln.Addr().String(), "export.*", b, ReconnectOptions{
		Logf: func(format string, args ...any) {
			for _, a := range args {
				if err, ok := a.(error); ok {
					select {
					case reasons <- err:
					default:
					}
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		env := Envelope{Topic: "export.big", Payload: strings.Repeat("x", 64*1024)}
		for {
			select {
			case <-stop:
				return
			default:
				b.Publish(env)
				time.Sleep(time.Millisecond)
			}
		}
	}()
	select {
	case err := <-reasons:
		if _, wrote := err.(writeError); !wrote || !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("logged reason %v, want the write deadline", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for the dropped link's reason")
	}

	srvBus := New()
	srv, err := NewServer("127.0.0.1:0", "export.*", srvBus)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	wedged, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer wedged.Close()
	waitUntil(t, "connection registered", func() bool { return srv.NumClients() == 1 })
	saturate(t, srvBus, srv)
	waitUntil(t, "the wedged client dropped", func() bool { return srv.NumClients() == 0 })
	if n := srv.ReadErrors(); n != 0 {
		t.Fatalf("ReadErrors = %d after a write timeout, want 0", n)
	}
}
