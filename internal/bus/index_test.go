package bus

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestBareStarMatchesEverything covers the root-wildcard fast path, including
// single-segment topics that never enter the trie walk.
func TestBareStarMatchesEverything(t *testing.T) {
	b := New()
	var got []string
	b.Subscribe("*", func(e Envelope) { got = append(got, e.Topic) })
	for _, topic := range []string{"t", "loop.sched.plan", ".leading", "trailing."} {
		b.Publish(Envelope{Topic: topic})
	}
	if len(got) != 4 {
		t.Errorf("bare * matched %v, want all 4 topics", got)
	}
}

// TestDotStarPrefix covers the ".*" pattern: an empty leading segment, which
// must match only topics that start with a dot.
func TestDotStarPrefix(t *testing.T) {
	b := New()
	var got []string
	b.Subscribe(".*", func(e Envelope) { got = append(got, e.Topic) })
	b.Publish(Envelope{Topic: ".hidden"})
	b.Publish(Envelope{Topic: "visible"})
	b.Publish(Envelope{Topic: "a.b"})
	if len(got) != 1 || got[0] != ".hidden" {
		t.Errorf(".* matched %v, want [.hidden]", got)
	}
}

// TestNonSegmentAlignedPrefix covers wildcard patterns whose prefix does not
// end on a segment boundary; these take the loose linear path.
func TestNonSegmentAlignedPrefix(t *testing.T) {
	b := New()
	var got []string
	b.Subscribe("loo*", func(e Envelope) { got = append(got, e.Topic) })
	b.Publish(Envelope{Topic: "loop.sched"})
	b.Publish(Envelope{Topic: "loot"})
	b.Publish(Envelope{Topic: "lo"})
	if len(got) != 2 || got[0] != "loop.sched" || got[1] != "loot" {
		t.Errorf("loo* matched %v, want [loop.sched loot]", got)
	}
}

// TestPrefixDoesNotMatchBareParent pins the raw-prefix semantics: "loop.*"
// means "starts with loop.", so the bare topic "loop" must not match, while
// the degenerate "loop." must.
func TestPrefixDoesNotMatchBareParent(t *testing.T) {
	b := New()
	var got []string
	b.Subscribe("loop.*", func(e Envelope) { got = append(got, e.Topic) })
	b.Publish(Envelope{Topic: "loop"})
	b.Publish(Envelope{Topic: "loop."})
	b.Publish(Envelope{Topic: "loopy.x"})
	b.Publish(Envelope{Topic: "loop.x.y"})
	if len(got) != 2 || got[0] != "loop." || got[1] != "loop.x.y" {
		t.Errorf("loop.* matched %v, want [loop. loop.x.y]", got)
	}
}

// TestOverlappingExactAndPrefixOrder subscribes exact, prefix, and wildcard
// patterns that all match one topic and checks handlers still fire in
// subscription order even though they live in different index structures.
func TestOverlappingExactAndPrefixOrder(t *testing.T) {
	b := New()
	var order []int
	sub := func(i int, pattern string) {
		b.Subscribe(pattern, func(Envelope) { order = append(order, i) })
	}
	sub(0, "a.b.c")
	sub(1, "a.*")
	sub(2, "*")
	sub(3, "a.b.*")
	sub(4, "a.b.c")
	sub(5, "a.b*")
	b.Publish(Envelope{Topic: "a.b.c"})
	if len(order) != 6 {
		t.Fatalf("matched %v, want all six subscriptions", order)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("dispatch order = %v, want subscription order", order)
		}
	}
}

// TestOrderAfterUnsubscribe removes a middle subscriber and checks the
// survivors keep firing in their original relative order.
func TestOrderAfterUnsubscribe(t *testing.T) {
	b := New()
	var order []int
	cancels := make([]func(), 5)
	for i := 0; i < 5; i++ {
		i := i
		pattern := "t"
		if i%2 == 1 {
			pattern = "t*" // interleave index structures
		}
		cancels[i] = b.Subscribe(pattern, func(Envelope) { order = append(order, i) })
	}
	cancels[2]()
	b.Publish(Envelope{Topic: "t"})
	want := []int{0, 1, 3, 4}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestSubscribeDuringPublish registers new subscribers from inside a handler
// and from concurrent goroutines while publishes are in flight; the bus must
// neither deadlock nor deliver to a handler registered after the publish
// snapshot.
func TestSubscribeDuringPublish(t *testing.T) {
	b := New()
	var mu sync.Mutex
	late := 0
	b.Subscribe("t", func(Envelope) {
		// Reentrant subscribe from a handler must not deadlock.
		b.Subscribe("t.other", func(Envelope) {})
	})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				b.Publish(Envelope{Topic: "t"})
			}
		}()
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				cancel := b.Subscribe(fmt.Sprintf("g%d.*", g), func(Envelope) {
					mu.Lock()
					late++
					mu.Unlock()
				})
				cancel()
			}
		}(g)
	}
	wg.Wait()
	if late != 0 {
		t.Errorf("handlers on unpublished topics fired %d times", late)
	}
	if pub, _ := b.Stats(); pub != 200 {
		t.Errorf("published = %d, want 200", pub)
	}
}

// TestPublishBatch checks batch delivery order, per-envelope topic routing,
// and single-pass stats accounting.
func TestPublishBatch(t *testing.T) {
	b := New()
	var got []string
	b.Subscribe("telemetry.*", func(e Envelope) { got = append(got, "w:"+e.Topic) })
	b.Subscribe("telemetry.cpu", func(e Envelope) { got = append(got, "x:"+e.Topic) })
	b.PublishBatch([]Envelope{
		{Topic: "telemetry.cpu"},
		{Topic: "telemetry.cpu"},
		{Topic: "telemetry.mem"},
		{Topic: "other"},
	})
	want := []string{"w:telemetry.cpu", "x:telemetry.cpu", "w:telemetry.cpu", "x:telemetry.cpu", "w:telemetry.mem"}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	pub, del := b.Stats()
	if pub != 4 || del != 5 {
		t.Errorf("Stats = %d, %d; want 4, 5", pub, del)
	}
	b.PublishBatch(nil) // empty batch is a no-op
	if pub, _ := b.Stats(); pub != 4 {
		t.Errorf("published = %d after empty batch, want 4", pub)
	}
}

// TestPublishBatchReentrant: topics that recur out of adjacency resolve to
// the same handlers, and a handler publishing a batch of its own mid-batch
// leaves the outer batch's dispatch plan intact.
func TestPublishBatchReentrant(t *testing.T) {
	b := New()
	var got []string
	b.Subscribe("a", func(e Envelope) {
		got = append(got, "a")
		b.PublishBatch([]Envelope{{Topic: "c"}, {Topic: "c"}})
	})
	b.Subscribe("b", func(e Envelope) { got = append(got, "b") })
	b.Subscribe("c", func(e Envelope) { got = append(got, "c") })
	b.PublishBatch([]Envelope{{Topic: "a"}, {Topic: "b"}, {Topic: "a"}, {Topic: "b"}})
	if want := "a c c b a c c b"; strings.Join(got, " ") != want {
		t.Fatalf("delivered %v, want %s", got, want)
	}
	if pub, del := b.Stats(); pub != 8 || del != 8 {
		t.Errorf("Stats = %d, %d; want 8, 8", pub, del)
	}
}

// TestPublishBatchEmptyTopicPanics keeps batch publishes as strict as
// single ones.
func TestPublishBatchEmptyTopicPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New().PublishBatch([]Envelope{{Topic: "ok"}, {}})
}

// TestTopicsAfterUnsubscribe checks routing survives duplicate patterns and
// cancellation: cancelling one of two identical subscriptions leaves the
// other delivering.
func TestTopicsAfterUnsubscribe(t *testing.T) {
	b := New()
	var got [3]int
	c1 := b.Subscribe("dup", func(Envelope) { got[0]++ })
	b.Subscribe("dup", func(Envelope) { got[1]++ })
	c3 := b.Subscribe("only.*", func(Envelope) { got[2]++ })
	c1()
	b.Publish(Envelope{Topic: "dup"})
	b.Publish(Envelope{Topic: "only.x"})
	if got != [3]int{0, 1, 1} {
		t.Errorf("deliveries = %v, want [0 1 1]", got)
	}
	c3()
	b.Publish(Envelope{Topic: "dup"})
	b.Publish(Envelope{Topic: "only.x"})
	if got != [3]int{0, 2, 1} {
		t.Errorf("deliveries = %v, want [0 2 1]", got)
	}
}

// TestDeepTopicManyWildLevels exercises the merge path with more source
// lists than the stack-allocated fast path holds.
func TestDeepTopicManyWildLevels(t *testing.T) {
	b := New()
	topic := "a.b.c.d.e.f.g.h"
	var order []int
	n := 0
	sub := func(pattern string) {
		i := n
		n++
		b.Subscribe(pattern, func(Envelope) { order = append(order, i) })
	}
	sub("*")
	sub("a.*")
	sub("a.b.*")
	sub("a.b.c.*")
	sub("a.b.c.d.*")
	sub("a.b.c.d.e.*")
	sub("a.b.c.d.e.f.*")
	sub("a.b.c.d.e.f.g.*")
	sub(topic)
	sub("a.b.c.d.e.f.g.h.x") // must not match
	b.Publish(Envelope{Topic: topic})
	if len(order) != 9 {
		t.Fatalf("matched %d subscriptions, want 9 (%v)", len(order), order)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("dispatch order = %v", order)
		}
	}
}

// TestZeroValueBusUsable pins that a Bus declared without New() still works.
func TestZeroValueBusUsable(t *testing.T) {
	var b Bus
	got := 0
	b.Subscribe("t", func(Envelope) { got++ })
	b.Publish(Envelope{Topic: "t"})
	if got != 1 {
		t.Errorf("zero-value bus delivered %d, want 1", got)
	}
}
