package control_test

import (
	"reflect"
	"sync"
	"sync/atomic"
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
// matcher read, one undeclared metric and one round reading. computed counts
// the reading's computations.
type probe struct {
	store    telemetry.Querier
	mu       sync.Mutex
	ticks    int
	bad      []string
	computed atomic.Int64
}

// probeKey names the probe's round reading: the declared metric's newest
// points, as the reading computes them.
type probeKey struct{ p *probe }

func (k probeKey) New() control.ReadingValue { return &probeReading{p: k.p} }

type probeReading struct {
	p   *probe
	pts []telemetry.Point
}

func (r *probeReading) Read(q telemetry.Querier, _ time.Duration) {
	r.p.computed.Add(1)
	r.pts = q.LatestInto(r.pts[:0], probeDeclared, nil)
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
			reading := control.NewReading(q, probeKey{p})
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
					shared := reading.Get(now).(*probeReading).pts
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
					case !reflect.DeepEqual(shared, want):
						p.bad = append(p.bad, "round reading differs from the store")
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

// TestRoundViewOneReadPerDeclaredInput is the round memo's contract,
// counted at the store: however many loops read a declared metric or a
// round reading in a round, the store sees one walk of it and the reading
// one computation; in a round where no loop reads it, none; reads with a
// matcher and reads of undeclared metrics still reach the store; a loop
// spawned between rounds reads fresh on its first round; and outside a
// round every read goes to the store.
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
	// Three power loops tick every other round, three OST loops every
	// round.
	const loops = 3
	for i := 0; i < loops; i++ {
		name := string(rune('a' + i))
		for _, spec := range []control.LoopSpec{
			{Case: powercase.CaseName, Name: "power-" + name, Period: control.Duration(2 * time.Minute)},
			{Case: ostcase.CaseName, Name: "ost-" + name, Period: control.Duration(time.Minute)},
		} {
			if _, err := svc.Spawn(spec); err != nil {
				t.Fatal(err)
			}
		}
	}

	now := time.Duration(0)
	round := func() map[readKey]int {
		now += time.Minute
		engine.RunUntil(now)
		pipe.Sample(now)
		svc.Tick(now)
		return store.take()
	}
	const k = 4
	temps := 0
	for i := 0; i < k; i++ {
		got := round()
		n := got[readKey{"LatestInto", "node.temp.celsius", false}]
		delete(got, readKey{"LatestInto", "node.temp.celsius", false})
		if n > 1 {
			t.Fatalf("round %d walked node.temp.celsius %d times for %d power loops; want at most once", i, n, loops)
		}
		temps += n
		want := map[readKey]int{{"LatestInto", "pfs.ost.lat_ms", false}: 1}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d store reads of %d ost loops = %v, want %v", i, loops, got, want)
		}
	}
	if temps != k/2 {
		t.Fatalf("%d rounds walked node.temp.celsius %d times; want %d, one per round a power loop ticks", k, temps, k/2)
	}

	// Two probes spawned between rounds: their declared input and their
	// round reading resolve from the very next round, once for both.
	for _, name := range []string{"probe-a", "probe-b"} {
		if _, err := svc.Spawn(control.LoopSpec{Case: "probe", Name: name}); err != nil {
			t.Fatal(err)
		}
	}
	got := make(map[readKey]int)
	for i := 0; i < k; i++ {
		for key, n := range round() {
			got[key] += n
		}
	}
	want := map[readKey]int{
		{"LatestInto", "node.temp.celsius", false}: k / 2,
		{"LatestInto", "pfs.ost.lat_ms", false}:    k,
		{"LatestInto", probeDeclared, false}:       k,     // the probes' reads and their reading share it
		{"LatestValue", "node.temp.celsius", true}: 2 * k, // a matcher read reaches the store
		{"LatestInto", probeUndeclared, false}:     2 * k, // so does an undeclared metric
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("store reads over %d rounds with two probes = %v, want %v", k, got, want)
	}
	if c := p.computed.Load(); p.ticks != 2*k || c != k || len(p.bad) > 0 {
		t.Fatalf("probes ticked %d times (want %d), their reading was computed %d times (want %d); mismatches: %v",
			p.ticks, 2*k, c, k, p.bad)
	}

	// Outside a round the view reads the store and the reading computes on
	// its own: a loop ticked on its own never sees a past round's value.
	for _, l := range svc.Coordinator().Loops() {
		if l.Name == "probe-a" {
			now += time.Minute
			engine.RunUntil(now)
			pipe.Sample(now)
			l.Tick(now)
		}
	}
	if got := store.take()[readKey{"LatestInto", probeDeclared, false}]; got != 2 || p.computed.Load() != k+1 || len(p.bad) > 0 {
		t.Fatalf("a tick outside a round made %d store reads of %s (want 2: its own and its reading's); mismatches: %v",
			got, probeDeclared, p.bad)
	}
}
