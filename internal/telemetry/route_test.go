package telemetry

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"autoloop/internal/bus"
)

// routeRig is a pipeline over a registry of seven metrics on three nodes
// (one metric only every third round, so a topic can go unseen for rounds)
// that records every round's gathered points. want(r) is the envelope
// stream round r would publish if every point were published.
type routeRig struct {
	pipe   *Pipeline
	b      *bus.Bus
	sink   *captureSink
	labels []Labels
}

func newRouteRig() *routeRig {
	rig := &routeRig{b: bus.New(), sink: &captureSink{}}
	for n := 0; n < 3; n++ {
		rig.labels = append(rig.labels, Labels{"node": fmt.Sprintf("n%d", n)})
	}
	reg := NewRegistry()
	var round int
	reg.Register(CollectorFunc(func(now time.Duration) []Point {
		round++
		var pts []Point
		for m := 0; m < 7; m++ {
			if m == 6 && round%3 != 0 {
				continue
			}
			for n, l := range rig.labels {
				pts = append(pts, Point{Name: fmt.Sprintf("m%d", m), Labels: l, Time: now, Value: float64(round*100 + m*10 + n)})
			}
		}
		return pts
	}))
	rig.pipe = NewPipeline(reg, rig.sink).PublishTo(rig.b, "rig")
	return rig
}

// round samples round r (counting from 1) at r seconds.
func (rig *routeRig) round(r int) { rig.pipe.Sample(time.Duration(r) * time.Second) }

func (rig *routeRig) want(r int) []bus.Envelope {
	var envs []bus.Envelope
	for _, pt := range rig.sink.batches[r-1] {
		envs = append(envs, bus.Envelope{
			Topic: TopicPrefix + pt.Name, Time: pt.Time, Source: "rig",
			Payload: WirePoint{Name: pt.Name, Labels: pt.Labels, Value: pt.Value},
		})
	}
	return envs
}

// receiver is one subscription or journal hook of the schedule: what it
// selects, the rounds it was attached for, and what it received.
type receiver struct {
	name     string
	accepts  func(topic string) bool
	from, to int // attached for rounds [from, to)
	cancel   func()
	got      []bus.Envelope
}

func (rc *receiver) record(env bus.Envelope) { rc.got = append(rc.got, env) }

// TestPipelinePublishesOnlyToReceivers drives a seeded schedule of
// Subscribe and cancel calls and journal hook swaps between rounds, over
// exact, loose, domain and bare-"*" patterns and patterns telemetry never
// reaches. Every receiver must see exactly the stream that publishing every
// point would show it — every point's envelope filtered by its pattern (or
// journal predicate), for the rounds it was attached — envelope for
// envelope; and the bus must count as published exactly the envelopes whose
// topic had a receiver that round.
func TestPipelinePublishesOnlyToReceivers(t *testing.T) {
	patterns := []string{"*", "telemetry.*", "telemetry.m1", "telemetry.m6", "telemetry.m*", "loop.*", "telemetry.m3.*"}
	journals := []func(string) bool{
		nil, // removes the hook
		func(topic string) bool { return strings.HasPrefix(topic, "loop.") },
		func(topic string) bool { return strings.HasSuffix(topic, ".m2") || strings.HasSuffix(topic, ".m6") },
	}
	const rounds = 120
	rng := rand.New(rand.NewSource(7))
	rig := newRouteRig()
	var all, live []*receiver
	var journal *receiver
	// Of all envelopes, wantPublished have a receiver and journalOnly have
	// only the journal.
	total, wantPublished, journalOnly := 0, 0, 0
	for r := 1; r <= rounds; r++ {
		for ops := rng.Intn(4); ops > 0; ops-- {
			switch k := rng.Intn(10); {
			case k < 3: // subscribe
				pat := patterns[rng.Intn(len(patterns))]
				rc := &receiver{name: fmt.Sprintf("%q from round %d", pat, r), accepts: func(topic string) bool { return bus.MatchTopic(pat, topic) }, from: r, to: rounds + 1}
				rc.cancel = rig.b.Subscribe(pat, rc.record)
				all, live = append(all, rc), append(live, rc)
			case k < 8 && len(live) > 0: // cancel
				i := rng.Intn(len(live))
				rc := live[i]
				rc.cancel()
				rc.to = r
				live = append(live[:i], live[i+1:]...)
			default: // swap the journal hook
				if journal != nil {
					journal.to = r
					journal = nil
				}
				j := rng.Intn(len(journals))
				if journals[j] == nil {
					rig.b.Journal(nil, nil)
					continue
				}
				journal = &receiver{name: fmt.Sprintf("journal %d from round %d", j, r), accepts: journals[j], from: r, to: rounds + 1}
				rig.b.Journal(journals[j], journal.record)
				all = append(all, journal)
			}
		}
		rig.round(r)
		attached := live[:len(live):len(live)]
		if journal != nil {
			attached = append(attached, journal)
		}
		for _, env := range rig.want(r) {
			total++
			if slices.ContainsFunc(attached, func(rc *receiver) bool { return rc.accepts(env.Topic) }) {
				wantPublished++
				if !slices.ContainsFunc(live, func(rc *receiver) bool { return rc.accepts(env.Topic) }) {
					journalOnly++
				}
			}
		}
	}
	if len(all) < 20 || wantPublished == total || journalOnly == 0 {
		t.Fatalf("the schedule attached %d receivers; %d of %d envelopes had a receiver, %d only the journal: want some with none and some with only the journal",
			len(all), wantPublished, total, journalOnly)
	}
	t.Logf("%d receivers; %d of %d envelopes had a receiver, %d only the journal", len(all), wantPublished, total, journalOnly)
	for _, rc := range all {
		var want []bus.Envelope
		for r := rc.from; r < rc.to; r++ {
			for _, env := range rig.want(r) {
				if rc.accepts(env.Topic) {
					want = append(want, env)
				}
			}
		}
		if len(rc.got) != len(want) {
			t.Fatalf("%s received %d envelopes, publishing every point gives it %d", rc.name, len(rc.got), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(rc.got[i], want[i]) {
				t.Fatalf("%s: envelope %d = %+v, publishing every point gives %+v", rc.name, i, rc.got[i], want[i])
			}
		}
	}
	if pub, _ := rig.b.Stats(); pub != uint64(wantPublished) {
		t.Errorf("bus published %d envelopes, want the %d whose topic had a receiver", pub, wantPublished)
	}
}

// TestPipelineSubscribeDuringRounds subscribes and cancels from another
// goroutine while rounds run, and checks the rule PublishTo documents: a
// subscription that completes before a round starts receives all of that
// round's points, a cancel that completes before a round starts receives
// none of it, and a round that overlaps either call delivers some in-order
// part of it.
func TestPipelineSubscribeDuringRounds(t *testing.T) {
	rig := newRouteRig()
	const rounds = 300
	var started, finished atomic.Int64
	type window struct {
		rc *receiver
		// The rounds finished when Subscribe was called, started when it
		// returned, finished when cancel was called, and started when it
		// returned.
		before, subscribed, quiet, canceled int
	}
	var windows []window
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		patterns := []string{"telemetry.*", "telemetry.m4", "*", "telemetry.m6"}
		for i := 0; i < 2000; i++ {
			select {
			case <-stop:
				return
			default:
			}
			pat := patterns[i%len(patterns)]
			rc := &receiver{name: fmt.Sprintf("%q #%d", pat, i), accepts: func(topic string) bool { return bus.MatchTopic(pat, topic) }}
			w := window{rc: rc, before: int(finished.Load())}
			cancel := rig.b.Subscribe(pat, rc.record)
			w.subscribed = int(started.Load())
			for j := 0; j < i%5; j++ {
				runtime.Gosched()
			}
			w.quiet = int(finished.Load())
			cancel()
			w.canceled = int(started.Load())
			windows = append(windows, w)
			runtime.Gosched()
		}
	}()
	for r := 1; r <= rounds; r++ {
		started.Store(int64(r))
		rig.round(r)
		finished.Store(int64(r))
		if r%16 == 0 {
			runtime.Gosched()
		}
	}
	close(stop)
	wg.Wait()
	if len(windows) == 0 {
		t.Fatal("no subscription completed while rounds ran")
	}
	full := 0
	for _, w := range windows {
		got := w.rc.got
		// Rounds outside (before, canceled] must deliver nothing: got holds
		// only rounds inside it, in order.
		for r := w.before + 1; r <= w.canceled; r++ {
			var want []bus.Envelope
			for _, env := range rig.want(r) {
				if w.rc.accepts(env.Topic) {
					want = append(want, env)
				}
			}
			var in []bus.Envelope
			for len(got) > 0 && got[0].Time == time.Duration(r)*time.Second {
				in, got = append(in, got[0]), got[1:]
			}
			if r > w.subscribed && r <= w.quiet {
				full++
				if !reflect.DeepEqual(in, want) {
					t.Fatalf("%s: subscribed before round %d and canceled after it, received %d of its %d envelopes", w.rc.name, r, len(in), len(want))
				}
			} else if !isSubsequence(in, want) {
				t.Fatalf("%s: round %d delivered %v, not an in-order part of %v", w.rc.name, r, in, want)
			}
		}
		if len(got) > 0 {
			t.Fatalf("%s: received %+v and %d more outside its subscription, which started after round %d and ended before round %d",
				w.rc.name, got[0], len(got)-1, w.before, w.canceled+1)
		}
	}
	t.Logf("%d subscriptions; %d rounds ran wholly inside one", len(windows), full)
}

func isSubsequence(part, whole []bus.Envelope) bool {
	for _, env := range part {
		for len(whole) > 0 && !reflect.DeepEqual(whole[0], env) {
			whole = whole[1:]
		}
		if len(whole) == 0 {
			return false
		}
		whole = whole[1:]
	}
	return true
}
