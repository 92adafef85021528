package bus

import (
	"strings"
	"testing"
	"time"
)

// FuzzTopicMatch cross-checks the indexed dispatch path (exact map + segment
// trie + loose linear list) against the naive reference matcher `matches` on
// arbitrary topic/pattern sets: for any topic, dispatch must deliver to
// exactly the subscriptions whose pattern matches, in subscription order.
func FuzzTopicMatch(f *testing.F) {
	// Seed corpus: bare "*", ".*", empty segments, overlapping exact+prefix
	// subscriptions, loose (non-segment-aligned) wildcards.
	f.Add("a.b.c", "*", "a.*", "a.b.c")
	f.Add("loop.sched.plan", "loop.*", "loop.sched.plan", "loop*")
	f.Add("a..b", ".*", "a..*", "a.")
	f.Add("telemetry.node.temp", "telemetry.node.*", "telemetry.*", "*")
	f.Add("x", "", "x.*", "x")
	f.Add("a.b", "a.b.*", "a.b*", "a.b.")
	f.Add(".", ".*", "..*", "")
	f.Add("fleet.round", "fleet.*", "fleet.round", "fl*")

	f.Fuzz(func(t *testing.T, topic, p1, p2, p3 string) {
		if topic == "" {
			return // Publish rejects empty topics by contract
		}
		// Build an overlapping subscription set: the three fuzzed patterns
		// plus derived exact and prefix subscriptions over the same topic so
		// exact-map, trie, and root-wild paths all stay hot.
		patterns := []string{p1, p2, p3, topic, "*"}
		if i := strings.IndexByte(topic, '.'); i >= 0 {
			patterns = append(patterns, topic[:i+1]+"*")
		}

		b := New()
		var got []int
		for i, p := range patterns {
			i := i
			b.Subscribe(p, func(Envelope) { got = append(got, i) })
		}
		b.Publish(Envelope{Topic: topic, Time: time.Second})

		var want []int
		for i, p := range patterns {
			if matches(p, topic) {
				want = append(want, i)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("topic %q patterns %q: index delivered to %v, reference says %v", topic, patterns, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("topic %q patterns %q: delivery order %v, reference order %v", topic, patterns, got, want)
			}
		}
		// HasReceiver walks the same index and stops at the first match: on
		// a bus holding any one of the patterns it answers as the reference
		// matcher does.
		for _, p := range patterns {
			one := New()
			one.Subscribe(p, func(Envelope) {})
			if got := one.HasReceiver(topic); got != matches(p, topic) {
				t.Fatalf("topic %q pattern %q: HasReceiver = %v, reference says %v", topic, p, got, !got)
			}
		}
	})
}
