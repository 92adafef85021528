package gateway

import (
	"bufio"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"autoloop/internal/bus"
)

func publish(b *bus.Bus, topic string, payload interface{}) {
	b.Publish(bus.Envelope{Topic: topic, Payload: payload})
}

// recvFrame reads one frame from the subscriber outbox or fails.
func recvFrame(t *testing.T, sub *Subscriber) string {
	t.Helper()
	select {
	case frame, ok := <-sub.out:
		if !ok {
			t.Fatal("outbox closed")
		}
		return string(frame)
	case <-time.After(2 * time.Second):
		t.Fatal("timed out waiting for frame")
	}
	return ""
}

func TestHubFanout(t *testing.T) {
	b := bus.New()
	h := NewHub(b, 8)
	defer h.Close()
	sub := h.Subscribe([]string{"loop.*"}, 0, 16)
	defer h.Unsubscribe(sub)

	publish(b, "loop.finding", map[string]int{"x": 1})
	frame := recvFrame(t, sub)
	if !strings.HasPrefix(frame, "id: 1\nevent: loop.finding\ndata: ") || !strings.HasSuffix(frame, "\n\n") {
		t.Fatalf("frame = %q", frame)
	}
	if !strings.Contains(frame, `"loop.finding"`) {
		t.Fatalf("frame data should carry the envelope JSON: %q", frame)
	}
	publish(b, "fleet.round", nil) // no matching pattern: not delivered
	publish(b, "loop.plan", nil)
	if frame = recvFrame(t, sub); !strings.HasPrefix(frame, "id: 2\nevent: loop.plan\n") {
		t.Fatalf("frame = %q (non-matching topics must not consume ids or slots)", frame)
	}
	if h.Clients() != 1 || h.Events() != 2 {
		t.Fatalf("clients = %d events = %d", h.Clients(), h.Events())
	}
}

func TestHubReplay(t *testing.T) {
	b := bus.New()
	h := NewHub(b, 8)
	defer h.Close()
	// A subscription must exist for events to enter the ring.
	keeper := h.Subscribe([]string{"loop.*"}, 0, 1)
	for i := 1; i <= 10; i++ {
		publish(b, "loop.finding", i)
	}
	// Ring keeps the last 8 (ids 3..10); ask for everything after id 5.
	sub := h.Subscribe([]string{"loop.*"}, 5, 16)
	for want := 6; want <= 10; want++ {
		frame := recvFrame(t, sub)
		if !strings.HasPrefix(frame, fmt.Sprintf("id: %d\n", want)) {
			t.Fatalf("replayed frame = %q, want id %d", frame, want)
		}
	}
	select {
	case frame := <-sub.out:
		t.Fatalf("unexpected extra frame %q", string(frame))
	default:
	}
	// Replay filters by pattern: a subscriber of another topic gets nothing.
	other := h.Subscribe([]string{"fleet.*"}, 1, 16)
	select {
	case frame := <-other.out:
		t.Fatalf("pattern-mismatched replay frame %q", string(frame))
	default:
	}
	h.Unsubscribe(keeper)
	h.Unsubscribe(sub)
	h.Unsubscribe(other)
}

func TestHubSlowSubscriberDropsNeverBlocks(t *testing.T) {
	b := bus.New()
	h := NewHub(b, 4)
	defer h.Close()
	sub := h.Subscribe([]string{"loop.*"}, 0, 2)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 10; i++ {
			publish(b, "loop.finding", i)
		}
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("publish blocked on a full subscriber outbox")
	}
	if d := sub.Dropped(); d != 8 {
		t.Fatalf("sub dropped = %d, want 8 (outbox depth 2)", d)
	}
	if h.Dropped() != 8 || h.Events() != 10 {
		t.Fatalf("hub dropped = %d events = %d", h.Dropped(), h.Events())
	}
	// The two buffered frames are still intact and ordered.
	if f := recvFrame(t, sub); !strings.HasPrefix(f, "id: 1\n") {
		t.Fatalf("first retained frame = %q", f)
	}
	h.Unsubscribe(sub)
	if _, ok := <-sub.out; ok {
		// one more buffered frame is fine; the channel must be closed after
		if _, ok := <-sub.out; ok {
			t.Fatal("outbox not closed after Unsubscribe")
		}
	}
}

func TestHubUnsubscribeDetachesBusSubscription(t *testing.T) {
	b := bus.New()
	h := NewHub(b, 8)
	defer h.Close()
	s1 := h.Subscribe([]string{"loop.*"}, 0, 4)
	s2 := h.Subscribe([]string{"loop.*"}, 0, 4)
	h.Unsubscribe(s1)
	publish(b, "loop.x", nil)
	recvFrame(t, s2) // survivor still receives
	h.Unsubscribe(s2)

	h.mu.Lock()
	n := len(h.patterns)
	h.mu.Unlock()
	if n != 0 {
		t.Fatalf("patterns left after last unsubscribe: %d", n)
	}
	before := h.Events()
	publish(b, "loop.x", nil)
	if h.Events() != before {
		t.Fatal("bus subscription not cancelled with its last subscriber")
	}
}

// TestStreamHTTP drives /v1/stream over a real server: live events, then a
// reconnect with Last-Event-ID replays what was missed.
func TestStreamHTTP(t *testing.T) {
	b := bus.New()
	g := New(Options{Store: newTestDB(t), Bus: b, ReadTokens: []string{"reader"}})
	defer g.Close()
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/stream?topics=loop.*&token=reader")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "text/event-stream" {
		t.Fatalf("status %d content-type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	sc := bufio.NewScanner(resp.Body)
	readLine := func() string {
		if !sc.Scan() {
			t.Fatalf("stream ended: %v", sc.Err())
		}
		return sc.Text()
	}
	if l := readLine(); l != "retry: 3000" {
		t.Fatalf("first line = %q", l)
	}
	waitUntilSSE(t, func() bool { return g.hub.Clients() == 1 })
	publish(b, "loop.finding", map[string]string{"kind": "overheat"})
	var lines []string
	for len(lines) < 3 {
		if l := readLine(); l != "" {
			lines = append(lines, l)
		}
	}
	if lines[0] != "id: 1" || lines[1] != "event: loop.finding" || !strings.Contains(lines[2], "overheat") {
		t.Fatalf("event lines = %q", lines)
	}
	publish(b, "loop.finding", "missed-1")
	publish(b, "loop.finding", "missed-2")
	resp.Body.Close()

	// Reconnect claiming we saw id 1: ids 2 and 3 replay in order.
	req, _ := http.NewRequest("GET", srv.URL+"/v1/stream?topics=loop.*&token=reader", nil)
	req.Header.Set("Last-Event-ID", "1")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	sc2 := bufio.NewScanner(resp2.Body)
	var got []string
	for sc2.Scan() && len(got) < 2 {
		if l := sc2.Text(); strings.HasPrefix(l, "id: ") {
			got = append(got, l)
		}
	}
	if len(got) != 2 || got[0] != "id: 2" || got[1] != "id: 3" {
		t.Fatalf("replayed ids = %q", got)
	}
}

// TestStreamHTTPDroppedFrame wedges an SSE client until the hub drops
// events for it, then verifies the client is told via a "dropped" event.
func TestStreamHTTPDroppedFrame(t *testing.T) {
	b := bus.New()
	g := New(Options{Store: newTestDB(t), Bus: b, OutboxDepth: 2})
	defer g.Close()
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/stream?topics=loop.*")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	waitUntilSSE(t, func() bool { return g.hub.Clients() == 1 })

	// Flood without reading until the outbox overflows. Large payloads fill
	// the kernel socket buffers quickly, wedging the handler in Write.
	payload := strings.Repeat("x", 16<<10)
	deadline := time.Now().Add(10 * time.Second)
	for g.hub.Dropped() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for SSE outbox overflow")
		}
		publish(b, "loop.flood", payload)
	}

	// Now drain: among the retained frames we must find the drop report.
	found := make(chan struct{})
	go func() {
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			if sc.Text() == "event: dropped" {
				close(found)
				return
			}
		}
	}()
	select {
	case <-found:
	case <-time.After(5 * time.Second):
		t.Fatal("no dropped event on the stream")
	}
	if g.Stats().StreamDropped == 0 {
		t.Fatal("stats do not reflect the drops")
	}
}

// TestHubManyIdleSubscribers holds 10k subscribers on the hub and proves
// publishing stays fast, idle subscribers cost no goroutines, and teardown
// closes everyone. Run with -race in CI.
func TestHubManyIdleSubscribers(t *testing.T) {
	b := bus.New()
	h := NewHub(b, 64)
	const idle = 10000

	g0 := runtime.NumGoroutine()
	subs := make([]*Subscriber, idle)
	for i := range subs {
		subs[i] = h.Subscribe([]string{"loop.*"}, 0, 4)
	}
	if g1 := runtime.NumGoroutine(); g1 > g0+2 {
		t.Fatalf("idle subscribers spawned goroutines: %d -> %d", g0, g1)
	}

	active := h.Subscribe([]string{"loop.*"}, 0, 512)
	var got sync.WaitGroup
	got.Add(1)
	go func() {
		defer got.Done()
		for n := 0; n < 200; {
			if _, ok := <-active.out; !ok {
				return
			}
			n++
		}
	}()

	start := time.Now()
	var pubs sync.WaitGroup
	for p := 0; p < 4; p++ {
		pubs.Add(1)
		go func() {
			defer pubs.Done()
			for i := 0; i < 50; i++ {
				publish(b, "loop.stress", i)
			}
		}()
	}
	pubs.Wait()
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("200 publishes into %d subscribers took %v", idle+1, elapsed)
	}
	got.Wait() // the draining subscriber saw every event
	if h.Events() != 200 {
		t.Fatalf("events = %d, want 200", h.Events())
	}

	h.Close()
	for i, sub := range subs {
		for {
			if _, ok := <-sub.out; !ok {
				break
			}
			_ = i
		}
	}
	if h.Clients() != 0 {
		t.Fatalf("clients after close = %d", h.Clients())
	}
}

// waitUntilSSE polls cond briefly.
func waitUntilSSE(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(2 * time.Millisecond)
	}
}
