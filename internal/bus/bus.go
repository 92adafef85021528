// Package bus provides the topic-based publish/subscribe fabric that
// decouples MAPE-K loop components from each other and from the substrates
// they manage, plus a JSON wire codec and TCP transport so components can be
// distributed across processes.
//
// The paper's question (ii) asks what interfaces would make loop components
// interchangeable; the answer implemented here is: components never call each
// other directly, they exchange envelopes on named topics ("telemetry.points",
// "loop.<name>.plan", "sched.extension.result", ...). In-process delivery is
// synchronous and deterministic under the simulator; the wire transport
// carries the same envelopes across the network for cmd/modad.
//
// Dispatch is topic-indexed: exact-topic subscriptions live in a hash map and
// "prefix.*" subscriptions in a segment trie, so Publish costs O(topic depth)
// regardless of how many subscriptions exist. Stats are atomic counters, so
// the whole dispatch path takes a single read-lock.
//
// A Reconnector keeps a bridged Client alive across outages, redialing on
// one capped, full-jitter backoff schedule (reconnect.go).
package bus

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Envelope is the unit of exchange on the bus. Payload is JSON-marshalable;
// in-process subscribers receive the original value, wire subscribers receive
// the decoded JSON form.
type Envelope struct {
	Topic   string        `json:"topic"`
	Time    time.Duration `json:"time"`
	Source  string        `json:"source,omitempty"`
	Payload interface{}   `json:"payload,omitempty"`
	// Deadline, when positive, is the virtual time at which the envelope's
	// content stops being actionable (a stale telemetry point, a superseded
	// round summary). The bus drops already-expired envelopes at publish
	// time; see deadline.go.
	Deadline time.Duration `json:"deadline,omitempty"`
}

// Handler consumes envelopes published to a subscribed topic.
type Handler func(Envelope)

// subscription pairs a handler with its registration order for deterministic
// dispatch.
type subscription struct {
	id      int
	pattern string
	h       Handler
}

// trieNode is one segment of the prefix index. A subscription for "a.b.*"
// hangs its wild list off the node reached by descending "a" then "b"; the
// dispatch walk collects wild lists along the topic's segment path.
type trieNode struct {
	children map[string]*trieNode
	wild     []*subscription
}

// Bus is an in-process topic pub/sub hub. Delivery is synchronous: Publish
// invokes every matching handler before returning, which keeps simulated
// loops deterministic. Bus is safe for concurrent use.
type Bus struct {
	mu     sync.RWMutex
	nextID int
	// exact indexes literal-topic subscriptions by topic.
	exact map[string][]*subscription
	// root indexes "prefix.*" subscriptions by segment path; its own wild
	// list holds bare-"*" subscriptions, which match every topic.
	root trieNode
	// loose holds wildcard patterns whose prefix is not segment-aligned
	// ("loo*"); they are rare and matched linearly.
	loose []*subscription

	published atomic.Uint64
	delivered atomic.Uint64
	expired   atomic.Uint64

	// journal, when set, observes every envelope accepted for delivery
	// (expired drops excluded) before its handlers run. It is the WAL hook:
	// the daemon records published envelopes as an audit trail. Swapped
	// atomically so the publish hot path reads one pointer.
	journal atomic.Pointer[func(Envelope)]
}

// New returns an empty bus.
func New() *Bus {
	return &Bus{exact: make(map[string][]*subscription)}
}

// Subscribe registers h for every envelope whose topic matches pattern.
// A pattern either names a topic exactly or ends in ".*" / "*" to match a
// prefix ("loop.*" matches "loop.sched.plan"). Subscribe returns an
// unsubscribe function.
func (b *Bus) Subscribe(pattern string, h Handler) (cancel func()) {
	if h == nil {
		panic("bus: Subscribe with nil handler")
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.exact == nil { // keep the zero value usable, like New()
		b.exact = make(map[string][]*subscription)
	}
	b.nextID++
	s := &subscription{id: b.nextID, pattern: pattern, h: h}
	b.insertLocked(s)
	done := false
	return func() {
		b.mu.Lock()
		defer b.mu.Unlock()
		if done {
			return
		}
		done = true
		b.removeLocked(s)
	}
}

// insertLocked places s into the index matching its pattern shape.
func (b *Bus) insertLocked(s *subscription) {
	prefix, wild := wildPrefix(s.pattern)
	switch {
	case !wild:
		b.exact[s.pattern] = append(b.exact[s.pattern], s)
	case prefix == "":
		b.root.wild = append(b.root.wild, s)
	case strings.HasSuffix(prefix, "."):
		n := &b.root
		for _, seg := range strings.Split(prefix[:len(prefix)-1], ".") {
			child := n.children[seg]
			if child == nil {
				child = &trieNode{}
				if n.children == nil {
					n.children = make(map[string]*trieNode)
				}
				n.children[seg] = child
			}
			n = child
		}
		n.wild = append(n.wild, s)
	default:
		b.loose = append(b.loose, s)
	}
}

// removeLocked undoes insertLocked, pruning emptied trie nodes.
func (b *Bus) removeLocked(s *subscription) {
	prefix, wild := wildPrefix(s.pattern)
	switch {
	case !wild:
		if rest := dropSub(b.exact[s.pattern], s); len(rest) == 0 {
			delete(b.exact, s.pattern)
		} else {
			b.exact[s.pattern] = rest
		}
	case prefix == "":
		b.root.wild = dropSub(b.root.wild, s)
	case strings.HasSuffix(prefix, "."):
		segs := strings.Split(prefix[:len(prefix)-1], ".")
		path := make([]*trieNode, 0, len(segs)+1)
		n := &b.root
		path = append(path, n)
		for _, seg := range segs {
			n = n.children[seg]
			if n == nil {
				return // never inserted (unreachable in practice)
			}
			path = append(path, n)
		}
		n.wild = dropSub(n.wild, s)
		for i := len(path) - 1; i > 0; i-- {
			node := path[i]
			if len(node.wild) > 0 || len(node.children) > 0 {
				break
			}
			delete(path[i-1].children, segs[i-1])
		}
	default:
		b.loose = dropSub(b.loose, s)
	}
}

// dropSub removes s from list, preserving the id order of the rest.
func dropSub(list []*subscription, s *subscription) []*subscription {
	for i, have := range list {
		if have == s {
			out := make([]*subscription, 0, len(list)-1)
			out = append(out, list[:i]...)
			return append(out, list[i+1:]...)
		}
	}
	return list
}

// wildPrefix classifies pattern: wild reports whether it ends in "*", and
// prefix is the literal part before the "*".
func wildPrefix(pattern string) (prefix string, wild bool) {
	if strings.HasSuffix(pattern, "*") {
		return pattern[:len(pattern)-1], true
	}
	return pattern, false
}

// matches reports whether topic matches pattern (exact, or prefix with a
// trailing "*"). It is the reference semantics the index implements.
func matches(pattern, topic string) bool {
	if prefix, wild := wildPrefix(pattern); wild {
		return strings.HasPrefix(topic, prefix)
	}
	return pattern == topic
}

// MatchTopic reports whether topic matches pattern under the bus's
// subscription semantics: an exact topic, or a prefix pattern ending in
// "*" ("loop.*" matches "loop.sched.plan"). It is exported for layers that
// reuse the bus's topic vocabulary outside a subscription — e.g. the HTTP
// gateway's SSE replay filter.
func MatchTopic(pattern, topic string) bool { return matches(pattern, topic) }

// collectLocked gathers the handlers matching topic in subscription-id order.
// Callers must hold at least the read lock; the returned slice is freshly
// allocated and safe to use after the lock is released.
func (b *Bus) collectLocked(topic string) []Handler {
	// Gather the (individually id-sorted) source lists that can match.
	var store [6][]*subscription
	lists := store[:0]
	if ss := b.exact[topic]; len(ss) > 0 {
		lists = append(lists, ss)
	}
	if len(b.root.wild) > 0 {
		lists = append(lists, b.root.wild)
	}
	// Walk the segment trie: a wild list at depth d matches topics whose
	// first d segments reach its node and that continue past a "." there —
	// exactly strings.HasPrefix(topic, "seg1.…segd.").
	n, rest := &b.root, topic
	for len(n.children) > 0 {
		i := strings.IndexByte(rest, '.')
		if i < 0 {
			break
		}
		n = n.children[rest[:i]]
		if n == nil {
			break
		}
		rest = rest[i+1:]
		if len(n.wild) > 0 {
			lists = append(lists, n.wild)
		}
	}
	for _, s := range b.loose {
		if matches(s.pattern, topic) {
			lists = append(lists, []*subscription{s})
		}
	}
	switch len(lists) {
	case 0:
		return nil
	case 1:
		out := make([]Handler, len(lists[0]))
		for i, s := range lists[0] {
			out[i] = s.h
		}
		return out
	}
	// Merge by subscription id so dispatch order equals subscription order.
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	out := make([]Handler, 0, total)
	pos := make([]int, len(lists))
	for len(out) < total {
		best := -1
		for li, l := range lists {
			if pos[li] < len(l) && (best < 0 || l[pos[li]].id < lists[best][pos[best]].id) {
				best = li
			}
		}
		out = append(out, lists[best][pos[best]].h)
		pos[best]++
	}
	return out
}

// Publish delivers env to all matching subscribers in subscription order.
// An envelope already past its deadline at its own publish time is dropped
// (counted by ExpiredDropped), not delivered.
func (b *Bus) Publish(env Envelope) {
	if env.Topic == "" {
		panic("bus: Publish with empty topic")
	}
	if env.Expired(env.Time) {
		b.expired.Add(1)
		return
	}
	b.mu.RLock()
	matched := b.collectLocked(env.Topic)
	b.mu.RUnlock()

	if j := b.journal.Load(); j != nil {
		(*j)(env)
	}
	b.published.Add(1)
	b.delivered.Add(uint64(len(matched)))
	for _, h := range matched {
		h(env)
	}
}

// PublishBatch delivers every envelope in order, resolving the subscriber set
// for the whole batch under one read-lock and bumping the stats counters
// once. Runs of envelopes sharing a topic — the common case for telemetry
// point batches — reuse one handler resolution.
//
// The subscriber set is snapshotted once for the whole batch: a handler that
// subscribes or cancels mid-batch changes delivery only for subsequent
// publishes, not for the remaining envelopes of this batch (Publish has the
// same property per envelope).
func (b *Bus) PublishBatch(envs []Envelope) {
	if len(envs) == 0 {
		return
	}
	for i := range envs {
		if envs[i].Topic == "" {
			panic("bus: PublishBatch with empty topic")
		}
	}
	plans := make([][]Handler, len(envs))
	var lastTopic string
	var lastHandlers []Handler
	have := false
	total, dropped := 0, 0
	b.mu.RLock()
	for i := range envs {
		if envs[i].Expired(envs[i].Time) {
			dropped++
			continue
		}
		if !have || envs[i].Topic != lastTopic {
			lastTopic = envs[i].Topic
			lastHandlers = b.collectLocked(lastTopic)
			have = true
		}
		plans[i] = lastHandlers
		total += len(lastHandlers)
	}
	b.mu.RUnlock()

	if j := b.journal.Load(); j != nil {
		for i := range envs {
			if !envs[i].Expired(envs[i].Time) {
				(*j)(envs[i])
			}
		}
	}
	b.published.Add(uint64(len(envs) - dropped))
	b.delivered.Add(uint64(total))
	b.expired.Add(uint64(dropped))
	for i, env := range envs {
		for _, h := range plans[i] {
			h(env)
		}
	}
}

// Journal registers fn as the bus's journal hook: it observes every
// envelope accepted for delivery (expired drops excluded), before the
// envelope's handlers run and in publish order per publisher. The daemon
// uses it to record traffic into the write-ahead log as an audit trail;
// journaled envelopes are never re-published on recovery. Passing nil
// removes the hook. fn must be safe for concurrent use.
func (b *Bus) Journal(fn func(Envelope)) {
	if fn == nil {
		b.journal.Store(nil)
		return
	}
	b.journal.Store(&fn)
}

// Stats reports how many envelopes were published and delivered.
func (b *Bus) Stats() (published, delivered uint64) {
	return b.published.Load(), b.delivered.Load()
}

// ExpiredDropped reports how many envelopes were dropped at publish time
// because their deadline had already passed.
func (b *Bus) ExpiredDropped() uint64 { return b.expired.Load() }

// Encode marshals env to a single-line JSON wire form terminated by '\n'.
func Encode(env Envelope) ([]byte, error) {
	data, err := json.Marshal(env)
	if err != nil {
		return nil, fmt.Errorf("bus: encode %s: %w", env.Topic, err)
	}
	return append(data, '\n'), nil
}

// Decode unmarshals one wire line produced by Encode.
func Decode(line []byte) (Envelope, error) {
	var env Envelope
	if err := json.Unmarshal(line, &env); err != nil {
		return Envelope{}, fmt.Errorf("bus: decode: %w", err)
	}
	if env.Topic == "" {
		return Envelope{}, fmt.Errorf("bus: decode: missing topic")
	}
	return env, nil
}
