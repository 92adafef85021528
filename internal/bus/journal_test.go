package bus

import (
	"strings"
	"testing"
	"time"
)

// TestJournalHookObservesPublishes checks the journal hook sees every
// envelope accepted for delivery — including envelopes with zero
// subscribers — in publish order.
func TestJournalHookObservesPublishes(t *testing.T) {
	b := New()
	var seen []string
	b.Journal(func(string) bool { return true }, func(env Envelope) { seen = append(seen, env.Topic) })

	delivered := 0
	b.Subscribe("loop.*", func(Envelope) { delivered++ })

	b.Publish(Envelope{Topic: "loop.power.plan", Time: time.Second})
	b.Publish(Envelope{Topic: "orphan.topic", Time: time.Second}) // no subscriber, still journaled
	b.PublishBatch([]Envelope{
		{Topic: "loop.a", Time: time.Second},
		{Topic: "loop.b", Time: time.Second},
	})

	want := []string{"loop.power.plan", "orphan.topic", "loop.a", "loop.b"}
	if len(seen) != len(want) {
		t.Fatalf("journal saw %v, want %v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("journal saw %v, want %v", seen, want)
		}
	}
	if delivered != 3 {
		t.Fatalf("delivered %d, want 3", delivered)
	}

	// Removing the hook stops observation.
	b.Journal(nil, nil)
	b.Publish(Envelope{Topic: "loop.after", Time: time.Second})
	if len(seen) != len(want) {
		t.Fatalf("journal still active after removal: %v", seen)
	}
}

// TestJournalTopicsSelectRecords checks the bus applies the journal's topic
// predicate: the hook sees only the envelopes it selects, in publish order,
// and HasReceiver counts the hook for exactly those topics.
func TestJournalTopicsSelectRecords(t *testing.T) {
	b := New()
	var seen []string
	b.Journal(func(topic string) bool { return strings.HasPrefix(topic, "loop.") },
		func(env Envelope) { seen = append(seen, env.Topic) })
	if !b.HasReceiver("loop.a.plan") || b.HasReceiver("telemetry.x") {
		t.Fatalf("HasReceiver(loop.a.plan, telemetry.x) = %v, %v; want true, false",
			b.HasReceiver("loop.a.plan"), b.HasReceiver("telemetry.x"))
	}
	b.Publish(Envelope{Topic: "telemetry.x"})
	b.PublishBatch([]Envelope{{Topic: "loop.a"}, {Topic: "telemetry.y"}, {Topic: "loop.b"}})
	if want := []string{"loop.a", "loop.b"}; strings.Join(seen, " ") != strings.Join(want, " ") {
		t.Fatalf("journal saw %v, want %v", seen, want)
	}
	b.Journal(nil, nil)
	if b.HasReceiver("loop.a.plan") {
		t.Fatal("HasReceiver counts a removed journal hook")
	}
}
