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
// Both ends of the TCP bridge (wire.go) run one link type per connection,
// and a Client redials its Server across outages on one capped,
// full-jitter backoff schedule.
package bus

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Envelope is the unit of exchange on the bus. Payload is JSON-marshalable;
// in-process subscribers receive the original value. A payload that crossed
// the wire stays a json.RawMessage holding the sender's JSON until a
// receiver decodes it into its own type with DecodePayload, so it is parsed
// once, and an integer survives exactly rather than through a float64.
type Envelope struct {
	Topic   string        `json:"topic"`
	Time    time.Duration `json:"time"`
	Source  string        `json:"source,omitempty"`
	Payload interface{}   `json:"payload,omitempty"`
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

	// journal, when set, observes every published envelope its topic
	// predicate selects, before the envelope's handlers run. It is the WAL
	// hook: the daemon records published envelopes as an audit trail.
	// Swapped atomically so the publish hot path reads one pointer.
	journal atomic.Pointer[journalHook]
}

// journalHook is a Journal registration: the hook and the topics it
// records.
type journalHook struct {
	topics func(topic string) bool
	fn     func(Envelope)
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

// visitLocked calls yield with each id-sorted subscription list that
// matches topic — its exact list, the bare-"*" list, the wild lists along
// its segment path in the trie, and each matching loose pattern — until
// yield returns false. Callers must hold at least the read lock.
func (b *Bus) visitLocked(topic string, yield func([]*subscription) bool) {
	if ss := b.exact[topic]; len(ss) > 0 && !yield(ss) {
		return
	}
	if len(b.root.wild) > 0 && !yield(b.root.wild) {
		return
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
		if len(n.wild) > 0 && !yield(n.wild) {
			return
		}
	}
	for i, s := range b.loose {
		if matches(s.pattern, topic) && !yield(b.loose[i:i+1]) {
			return
		}
	}
}

// appendHandlersLocked appends the handlers matching topic to dst in
// subscription-id order and returns the extended slice. Callers must hold at
// least the read lock; the appended handlers stay valid after it is
// released.
func (b *Bus) appendHandlersLocked(dst []Handler, topic string) []Handler {
	// Gather the (individually id-sorted) source lists that can match.
	var store [6][]*subscription
	lists := store[:0]
	b.visitLocked(topic, func(l []*subscription) bool {
		lists = append(lists, l)
		return true
	})
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	dst = slices.Grow(dst, total)
	if len(lists) == 1 {
		for _, s := range lists[0] {
			dst = append(dst, s.h)
		}
		return dst
	}
	// Merge by subscription id so dispatch order equals subscription order.
	var posStore [len(store)]int
	pos := posStore[:]
	if len(lists) > len(pos) {
		pos = make([]int, len(lists))
	}
	for want := len(dst) + total; len(dst) < want; {
		best := -1
		for li, l := range lists {
			if pos[li] < len(l) && (best < 0 || l[pos[li]].id < lists[best][pos[best]].id) {
				best = li
			}
		}
		dst = append(dst, lists[best][pos[best]].h)
		pos[best]++
	}
	return dst
}

// Publish delivers env to all matching subscribers in subscription order.
func (b *Bus) Publish(env Envelope) {
	if env.Topic == "" {
		panic("bus: Publish with empty topic")
	}
	// A publish that reaches a few handlers collects them on the stack.
	var store [4]Handler
	b.mu.RLock()
	matched := b.appendHandlersLocked(store[:0], env.Topic)
	b.mu.RUnlock()

	if j := b.journal.Load(); j != nil && j.topics(env.Topic) {
		j.fn(env)
	}
	b.published.Add(1)
	b.delivered.Add(uint64(len(matched)))
	for _, h := range matched {
		h(env)
	}
}

// PublishBatch delivers every envelope in order, resolving the subscriber set
// for the whole batch under one read-lock and bumping the stats counters
// once. Each distinct topic is resolved once per batch — a telemetry round
// cycles through a node's five metrics, so its topics never repeat back to
// back — into a pooled dispatch plan, so a warm batch allocates nothing.
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
	p := planScratch.Get().(*batchPlan)
	total := 0
	b.mu.RLock()
	for i := range envs {
		sp, ok := p.byTopic[envs[i].Topic]
		if !ok {
			sp.lo = len(p.handlers)
			p.handlers = b.appendHandlersLocked(p.handlers, envs[i].Topic)
			sp.hi = len(p.handlers)
			p.byTopic[envs[i].Topic] = sp
		}
		p.spans = append(p.spans, sp)
		total += sp.hi - sp.lo
	}
	b.mu.RUnlock()

	if j := b.journal.Load(); j != nil {
		for i := range envs {
			if j.topics(envs[i].Topic) {
				j.fn(envs[i])
			}
		}
	}
	b.published.Add(uint64(len(envs)))
	b.delivered.Add(uint64(total))
	for i, env := range envs {
		for _, h := range p.handlers[p.spans[i].lo:p.spans[i].hi] {
			h(env)
		}
	}
	p.reset()
	planScratch.Put(p)
}

// batchPlan is PublishBatch's pooled dispatch scratch: the handlers of every
// distinct topic in the batch in one flat list, each envelope's span of it,
// and the per-batch topic memo. A handler that publishes a batch of its own
// takes another plan from the pool.
type batchPlan struct {
	handlers []Handler
	spans    []span
	byTopic  map[string]span
}

// span is a [lo, hi) range of batchPlan.handlers.
type span struct{ lo, hi int }

var planScratch = sync.Pool{New: func() any { return &batchPlan{byTopic: make(map[string]span)} }}

// reset empties p for the next batch, keeping its capacity but not the
// handlers and topics it referenced.
func (p *batchPlan) reset() {
	clear(p.handlers)
	p.handlers = p.handlers[:0]
	p.spans = p.spans[:0]
	clear(p.byTopic)
}

// Journal registers fn as the bus's journal hook: it observes every
// published envelope whose topic satisfies topics, before the envelope's
// handlers run and in publish order per publisher. The bus applies topics
// itself, so HasReceiver counts the hook only for the topics it records
// and a publisher skips building the rest. The daemon uses it to record
// traffic into the write-ahead log as an audit trail; journaled envelopes
// are never re-published on recovery. Passing a nil fn removes the hook.
// topics and fn must be safe for concurrent use.
func (b *Bus) Journal(topics func(topic string) bool, fn func(Envelope)) {
	if fn == nil {
		b.journal.Store(nil)
		return
	}
	b.journal.Store(&journalHook{topics: topics, fn: fn})
}

// HasReceiver reports whether a publish on topic would reach any handler or
// the journal hook. It walks the same index a publish resolves its handlers
// from, stops at the first match and allocates nothing, so a publisher can
// afford to ask before it builds an envelope and skip the envelopes nobody
// receives. The answer holds until the next Subscribe, cancel or Journal
// call.
func (b *Bus) HasReceiver(topic string) bool {
	if j := b.journal.Load(); j != nil && j.topics(topic) {
		return true
	}
	found := false
	b.mu.RLock()
	b.visitLocked(topic, func([]*subscription) bool {
		found = true
		return false
	})
	b.mu.RUnlock()
	return found
}

// Stats reports how many envelopes were published and delivered.
func (b *Bus) Stats() (published, delivered uint64) {
	return b.published.Load(), b.delivered.Load()
}

// Encode marshals env to a single-line JSON wire form terminated by '\n'.
func Encode(env Envelope) ([]byte, error) {
	data, err := json.Marshal(env)
	if err != nil {
		return nil, fmt.Errorf("bus: encode %s: %w", env.Topic, err)
	}
	return append(data, '\n'), nil
}

// wireEnvelope is an Envelope as Decode reads it: the payload stays raw.
type wireEnvelope struct {
	Topic   string          `json:"topic"`
	Time    time.Duration   `json:"time"`
	Source  string          `json:"source,omitempty"`
	Payload json.RawMessage `json:"payload,omitempty"`
}

// Decode unmarshals one wire line produced by Encode. A present, non-null
// payload becomes a json.RawMessage copied out of line, so the caller may
// reuse line; no generic value tree is built.
func Decode(line []byte) (Envelope, error) {
	var w wireEnvelope
	if err := json.Unmarshal(line, &w); err != nil {
		return Envelope{}, fmt.Errorf("bus: decode: %w", err)
	}
	if w.Topic == "" {
		return Envelope{}, fmt.Errorf("bus: decode: missing topic")
	}
	env := Envelope{Topic: w.Topic, Time: w.Time, Source: w.Source}
	if w.Payload != nil && string(w.Payload) != "null" {
		env.Payload = w.Payload
	}
	return env, nil
}
