package control_test

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"autoloop/internal/cases/ostcase"
	"autoloop/internal/cases/powercase"
	"autoloop/internal/control"
	"autoloop/internal/core"
	"autoloop/internal/fleet"
	"autoloop/internal/telemetry"
)

// readKey classifies one store read: its call, metric, and whether it
// carried a matcher.
type readKey struct {
	call, metric string
	matched      bool
}

// countingQuerier counts the reads that reach the store beneath a Service.
type countingQuerier struct {
	telemetry.Querier
	mu    sync.Mutex
	reads map[readKey]int
}

func (q *countingQuerier) count(call, metric string, matcher telemetry.Labels) {
	q.mu.Lock()
	q.reads[readKey{call, metric, len(matcher) > 0}]++
	q.mu.Unlock()
}

func (q *countingQuerier) LatestValue(h *telemetry.Handle) (float64, bool) {
	q.count("LatestValue", h.Name, h.Matcher)
	return q.Querier.LatestValue(h)
}

func (q *countingQuerier) LatestInto(buf []telemetry.Point, name string, matcher telemetry.Labels) []telemetry.Point {
	q.count("LatestInto", name, matcher)
	return q.Querier.LatestInto(buf, name, matcher)
}

func (q *countingQuerier) QueryVisit(name string, matcher telemetry.Labels, from, to time.Duration, visit telemetry.SeriesVisitor) {
	q.count("QueryVisit", name, matcher)
	q.Querier.QueryVisit(name, matcher, from, to, visit)
}

func (q *countingQuerier) take() map[readKey]int {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := q.reads
	q.reads = make(map[readKey]int)
	return out
}

// probe records, per tick, what its loop read through the Querier it was
// built with next to what the store held, for one declared metric, one
// matcher read, and one undeclared metric.
type probe struct {
	store telemetry.Querier
	mu    sync.Mutex
	ticks int
	bad   []string
}

const (
	probeDeclared   = "node.power.watts"
	probeUndeclared = "facility.pue"
)

func (p *probe) factory() control.CaseFactory {
	return control.CaseFactory{
		Name:     "probe",
		Doc:      "test: compares its reads with the store's",
		Requires: []control.Capability{control.CapQuerier},
		Inputs:   []string{probeDeclared},
		Build: func(env *control.Env, _ interface{}) ([]control.BuiltLoop, error) {
			q := env.Querier
			var got, want []telemetry.Point
			declared := &telemetry.Handle{Name: probeDeclared}
			n000 := &telemetry.Handle{Name: "node.temp.celsius", Matcher: telemetry.Labels{"node": "n000"}}
			l := core.NewLoop("probe",
				core.MonitorFunc(func(now time.Duration) (core.Observation, error) {
					got = q.LatestInto(got[:0], probeDeclared, nil)
					want = p.store.LatestInto(want[:0], probeDeclared, nil)
					v, ok := q.LatestValue(declared)
					matched, _ := q.LatestValue(n000)
					var pue []telemetry.Point
					pue = q.LatestInto(pue, probeUndeclared, nil)
					p.mu.Lock()
					defer p.mu.Unlock()
					p.ticks++
					switch {
					case len(got) == 0 || !reflect.DeepEqual(got, want):
						p.bad = append(p.bad, "declared read differs from the store")
					case !ok || v != want[len(want)-1].Value:
						p.bad = append(p.bad, "declared LatestValue differs from the store")
					case matched == 0 || len(pue) == 0:
						p.bad = append(p.bad, "pass-through read came back empty")
					}
					return core.Observation{Time: now}, nil
				}),
				core.AnalyzerFunc(func(now time.Duration, _ core.Observation) (core.Symptoms, error) {
					return core.Symptoms{Time: now}, nil
				}),
				core.PlannerFunc(func(now time.Duration, _ core.Symptoms) (core.Plan, error) {
					return core.Plan{Time: now}, nil
				}),
				core.ExecutorFunc(func(_ time.Duration, a core.Action) (core.ActionResult, error) {
					return core.ActionResult{Action: a}, nil
				}),
			)
			return []control.BuiltLoop{{Loop: l}}, nil
		},
	}
}

// TestRoundViewOneReadPerDeclaredInput is the round view's contract: however
// many loops declare a metric, the store sees one read of it per round; reads
// with a matcher and reads of undeclared metrics still reach the store; and a
// loop spawned between rounds reads its declared input, fresh, on its first
// round.
func TestRoundViewOneReadPerDeclaredInput(t *testing.T) {
	env, engine, pipe := testEnv(t, 11)
	db := env.Querier
	store := &countingQuerier{Querier: db, reads: make(map[readKey]int)}
	env.Querier = store
	reg := control.NewRegistry()
	reg.MustRegister(powercase.Factory())
	reg.MustRegister(ostcase.Factory())
	p := &probe{store: db}
	reg.MustRegister(p.factory())
	svc := control.NewService(reg, env, fleet.New(2), time.Minute)
	const loops = 3
	for i := 0; i < loops; i++ {
		for _, c := range []string{powercase.CaseName, ostcase.CaseName} {
			if _, err := svc.Spawn(control.LoopSpec{Case: c, Name: c + "-" + string(rune('a'+i))}); err != nil {
				t.Fatal(err)
			}
		}
	}

	now := time.Duration(0)
	round := func() {
		now += time.Minute
		engine.RunUntil(now)
		pipe.Sample(now)
		svc.Tick(now)
	}
	const k = 4
	for i := 0; i < k; i++ {
		round()
	}
	got := store.take()
	want := map[readKey]int{
		{"LatestInto", "node.temp.celsius", false}: k,
		{"LatestInto", "pfs.ost.lat_ms", false}:    k,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("store reads over %d rounds of %d power + %d ost loops = %v, want %v", k, loops, loops, got, want)
	}

	// Two probes spawned between rounds: their declared input is resolved
	// from the very next round, once for both.
	for _, name := range []string{"probe-a", "probe-b"} {
		if _, err := svc.Spawn(control.LoopSpec{Case: "probe", Name: name}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < k; i++ {
		round()
	}
	got = store.take()
	want = map[readKey]int{
		{"LatestInto", "node.temp.celsius", false}: k,
		{"LatestInto", "pfs.ost.lat_ms", false}:    k,
		{"LatestInto", probeDeclared, false}:       k,
		{"LatestValue", "node.temp.celsius", true}: 2 * k, // a matcher read reaches the store
		{"LatestInto", probeUndeclared, false}:     2 * k, // so does an undeclared metric
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("store reads over %d rounds with two probes = %v, want %v", k, got, want)
	}
	if p.ticks != 2*k || len(p.bad) > 0 {
		t.Fatalf("probes ticked %d times (want %d); mismatches: %v", p.ticks, 2*k, p.bad)
	}

	// Outside a round the view reads the store: a loop ticked on its own
	// never sees a past round's resolution.
	for _, l := range svc.Coordinator().Loops() {
		if l.Name == "probe-a" {
			now += time.Minute
			engine.RunUntil(now)
			pipe.Sample(now)
			l.Tick(now)
		}
	}
	if got := store.take()[readKey{"LatestInto", probeDeclared, false}]; got != 1 || len(p.bad) > 0 {
		t.Fatalf("a tick outside a round made %d store reads of %s (want 1); mismatches: %v", got, probeDeclared, p.bad)
	}
}
