package gateway

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"autoloop/internal/bus"
)

// The default Options.OutboxDepth, and how many recent events a gateway's
// hub retains for Last-Event-ID replay.
const (
	defaultOutboxDepth = 256
	defaultReplayDepth = 1024
)

// sseEvent is one fanned-out event: its monotonic id and the fully framed
// SSE wire bytes ("id: N\nevent: <topic>\ndata: <envelope json>\n\n"),
// encoded once and shared by every subscriber outbox and the replay ring.
type sseEvent struct {
	id    uint64
	topic string
	frame []byte
}

// Subscriber is one SSE client's view of the hub: a bounded outbox the
// serving goroutine drains, and a dropped-event counter that grows when the
// client is too slow to keep up. Idle subscribers cost exactly this struct
// and their channel buffer — no goroutine lives in the hub on their behalf.
type Subscriber struct {
	patterns []string
	out      chan []byte
	dropped  atomic.Uint64
}

// Dropped reports how many events were dropped because this subscriber's
// outbox was full.
func (s *Subscriber) Dropped() uint64 { return s.dropped.Load() }

// hubPattern is the hub's per-pattern state: the bus subscription feeding
// it and the subscribers registered for the pattern.
type hubPattern struct {
	cancel func()
	subs   map[*Subscriber]struct{}
}

// Hub fans bus envelopes out to SSE subscribers. It reuses the bus's topic
// index — each distinct pattern is one bus subscription, shared by every
// subscriber of that pattern — and delivery into subscriber outboxes is
// strictly non-blocking: a slow subscriber accumulates drops on its own
// counter and the publisher (the simulation tick goroutine) never waits.
//
// A bounded ring of recent events supports Last-Event-ID replay across SSE
// reconnects: a resubscribing client receives the retained events newer
// than its last seen id before going live.
//
// Subscriptions with overlapping patterns ("telemetry.*" and "*" on one
// stream) deliver one copy per matching pattern, each with its own id —
// subscribe with disjoint patterns, or dedupe by topic client-side.
type Hub struct {
	bus *bus.Bus

	mu       sync.Mutex
	patterns map[string]*hubPattern
	ring     []sseEvent // circular replay buffer
	ringHead int        // index of the oldest retained event
	ringLen  int
	ringCap  int
	nextID   uint64
	closed   bool

	clients atomic.Int64
	events  atomic.Uint64
	dropped atomic.Uint64
}

// NewHub builds a hub over b retaining replayDepth events.
func NewHub(b *bus.Bus, replayDepth int) *Hub {
	return &Hub{bus: b, patterns: make(map[string]*hubPattern), ringCap: replayDepth}
}

// Clients reports the number of live subscribers.
func (h *Hub) Clients() int64 { return h.clients.Load() }

// Events reports how many events were fanned out (counted once per bus
// envelope per matching pattern).
func (h *Hub) Events() uint64 { return h.events.Load() }

// Dropped reports events dropped across all subscribers' full outboxes.
func (h *Hub) Dropped() uint64 { return h.dropped.Load() }

// Subscribe registers a subscriber for the given topic patterns with an
// outbox of the given depth (<=0 selects the default). lastID > 0 replays
// retained events newer than lastID that match the patterns, in order,
// before any live event is delivered.
func (h *Hub) Subscribe(patterns []string, lastID uint64, depth int) *Subscriber {
	if depth <= 0 {
		depth = defaultOutboxDepth
	}
	sub := &Subscriber{patterns: patterns, out: make(chan []byte, depth)}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		close(sub.out)
		return sub
	}
	if lastID > 0 {
		for i := 0; i < h.ringLen; i++ {
			ev := &h.ring[(h.ringHead+i)%h.ringCap]
			if ev.id <= lastID {
				continue
			}
			for _, p := range patterns {
				if bus.MatchTopic(p, ev.topic) {
					sub.offer(ev.frame, h)
					break
				}
			}
		}
	}
	for _, p := range patterns {
		hp := h.patterns[p]
		if hp == nil {
			hp = &hubPattern{subs: make(map[*Subscriber]struct{})}
			pattern := p
			hp.cancel = h.bus.Subscribe(pattern, func(env bus.Envelope) { h.fanout(pattern, env) })
			h.patterns[p] = hp
		}
		hp.subs[sub] = struct{}{}
	}
	h.clients.Add(1)
	return sub
}

// Unsubscribe removes sub, cancels bus subscriptions that lost their last
// subscriber, and closes the outbox.
func (h *Hub) Unsubscribe(sub *Subscriber) {
	h.mu.Lock()
	if h.closed { // Close already detached everything
		h.mu.Unlock()
		return
	}
	removed := false
	var cancels []func()
	for _, p := range sub.patterns {
		hp := h.patterns[p]
		if hp == nil {
			continue
		}
		if _, ok := hp.subs[sub]; ok {
			delete(hp.subs, sub)
			removed = true
		}
		if len(hp.subs) == 0 {
			cancels = append(cancels, hp.cancel)
			delete(h.patterns, p)
		}
	}
	if removed {
		h.clients.Add(-1)
		// fanout sends only to registered subscribers under mu, so after the
		// deletes nothing can write to this outbox.
		close(sub.out)
	}
	h.mu.Unlock()
	for _, c := range cancels {
		c()
	}
}

// Close detaches every bus subscription and closes every outbox.
func (h *Hub) Close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	var cancels []func()
	seen := make(map[*Subscriber]struct{})
	for p, hp := range h.patterns {
		cancels = append(cancels, hp.cancel)
		for sub := range hp.subs {
			if _, dup := seen[sub]; !dup {
				seen[sub] = struct{}{}
				close(sub.out)
			}
		}
		delete(h.patterns, p)
	}
	h.clients.Store(0)
	h.mu.Unlock()
	for _, c := range cancels {
		c()
	}
}

// offer performs the non-blocking outbox send. Caller holds h.mu.
func (s *Subscriber) offer(frame []byte, h *Hub) {
	select {
	case s.out <- frame:
	default:
		s.dropped.Add(1)
		h.dropped.Add(1)
	}
}

// fanout is the bus handler for one pattern: encode once, retain for
// replay, offer to every subscriber of the pattern. The envelope JSON is
// built outside the hub lock; id assignment, ring append, and the
// non-blocking offers happen under it. Nothing here ever blocks, so the
// bus publisher is never backpressured regardless of subscriber count or
// speed.
func (h *Hub) fanout(pattern string, env bus.Envelope) {
	data, err := json.Marshal(env)
	if err != nil {
		return
	}
	h.mu.Lock()
	hp := h.patterns[pattern]
	if hp == nil || h.closed {
		h.mu.Unlock()
		return
	}
	h.nextID++
	frame := appendFrame(make([]byte, 0, len(data)+len(env.Topic)+32), h.nextID, env.Topic, data)
	ev := sseEvent{id: h.nextID, topic: env.Topic, frame: frame}
	if h.ring == nil {
		h.ring = make([]sseEvent, h.ringCap)
	}
	if h.ringLen == h.ringCap {
		h.ring[h.ringHead] = ev // overwrite the oldest
		h.ringHead = (h.ringHead + 1) % h.ringCap
	} else {
		h.ring[(h.ringHead+h.ringLen)%h.ringCap] = ev
		h.ringLen++
	}
	h.events.Add(1)
	for sub := range hp.subs {
		sub.offer(frame, h)
	}
	h.mu.Unlock()
}

// appendFrame builds one SSE wire frame.
func appendFrame(buf []byte, id uint64, topic string, data []byte) []byte {
	buf = append(buf, "id: "...)
	buf = strconv.AppendUint(buf, id, 10)
	buf = append(buf, "\nevent: "...)
	buf = append(buf, topic...)
	buf = append(buf, "\ndata: "...)
	buf = append(buf, data...)
	buf = append(buf, '\n', '\n')
	return buf
}

// defaultStreamTopics is what /v1/stream serves when no topics parameter is
// given: every loop's decision events, fleet round summaries, the control
// plane's pending/resolved approval traffic, and the knowledge base's writes.
const defaultStreamTopics = "loop.*,fleet.*,control.v1.*,knowledge.*"

// streamHeartbeat keeps idle SSE connections alive through proxies.
const streamHeartbeat = 30 * time.Second

// handleStream serves GET /v1/stream?topics=<p1,p2,...> as a server-sent
// event stream. Events carry the envelope JSON with the bus topic as the
// SSE event name and a monotonic id; reconnecting clients send
// Last-Event-ID (header or ?last_id=) to replay retained events. When the
// client falls behind, dropped events are counted and reported on the
// stream as "dropped" events (data: total dropped so far).
func (g *Gateway) handleStream(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		g.httpError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	if g.hub == nil {
		g.httpError(w, http.StatusServiceUnavailable, "stream hub not served")
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		g.httpError(w, http.StatusInternalServerError, "response writer cannot stream")
		return
	}
	topics := r.URL.Query().Get("topics")
	if topics == "" {
		topics = defaultStreamTopics
	}
	var patterns []string
	for _, p := range strings.Split(topics, ",") {
		if p = strings.TrimSpace(p); p != "" {
			patterns = append(patterns, p)
		}
	}
	if len(patterns) == 0 {
		g.httpError(w, http.StatusBadRequest, "empty topics")
		return
	}
	var lastID uint64
	lastStr := r.Header.Get("Last-Event-ID")
	if lastStr == "" {
		lastStr = r.URL.Query().Get("last_id")
	}
	if lastStr != "" {
		v, err := strconv.ParseUint(lastStr, 10, 64)
		if err != nil {
			g.httpError(w, http.StatusBadRequest, "bad Last-Event-ID %q", lastStr)
			return
		}
		lastID = v
	}

	sub := g.hub.Subscribe(patterns, lastID, g.opts.OutboxDepth)
	defer g.hub.Unsubscribe(sub)

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, "retry: 3000\n\n")
	fl.Flush()

	heartbeat := time.NewTicker(streamHeartbeat)
	defer heartbeat.Stop()
	ctx := r.Context()
	var reportedDrops uint64
	for {
		select {
		case <-ctx.Done():
			return
		case frame, ok := <-sub.out:
			if !ok {
				return // hub closed
			}
			if _, err := w.Write(frame); err != nil {
				return
			}
			if d := sub.Dropped(); d > reportedDrops {
				reportedDrops = d
				fmt.Fprintf(w, "event: dropped\ndata: %d\n\n", d)
			}
			fl.Flush()
		case <-heartbeat.C:
			if _, err := fmt.Fprint(w, ": keep-alive\n\n"); err != nil {
				return
			}
			fl.Flush()
		}
	}
}
