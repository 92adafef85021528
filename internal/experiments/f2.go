package experiments

import (
	"fmt"
	"math"
	"slices"
	"time"

	"autoloop/internal/core"
	"autoloop/internal/fleet"
	"autoloop/internal/sim"
	"autoloop/internal/telemetry"
	"autoloop/internal/tsdb"
)

// The Fig. 2 decentralization patterns are compositions of core.Loops:
// master-worker is one masterLoop over every subsystem, coordinated is one
// full loop per subsystem on a fleet (localFleet), and hierarchical is
// sqrt(N) masterLoops on a fleet (groupMasters).

// ---- shared managed subsystem for the pattern experiments ----

// subsystem is a minimal managed system: a work queue that grows at a fixed
// arrival rate; the control action drains it. It is its own core.Monitor
// (queue depth) and core.Executor (drain), i.e. exactly the M/E split the
// master-worker pattern leaves with each managed system.
type subsystem struct {
	name    string
	queue   float64
	arrival float64 // work per tick
	actions int
}

func (s *subsystem) step() { s.queue += s.arrival }

// Observe implements core.Monitor.
func (s *subsystem) Observe(now time.Duration) (core.Observation, error) {
	return core.Observation{Time: now, Points: []telemetry.Point{{
		Name: "subsys.queue", Labels: telemetry.Labels{"sub": s.name}, Time: now, Value: s.queue,
	}}}, nil
}

// Execute implements core.Executor.
func (s *subsystem) Execute(now time.Duration, a core.Action) (core.ActionResult, error) {
	amount := math.Min(a.Amount, s.queue)
	s.queue -= amount
	s.actions++
	return core.ActionResult{Action: a, Honored: true, Granted: amount}, nil
}

// drainAnalyzer flags any subsystem whose queue exceeds the threshold.
func drainAnalyzer(threshold float64) core.Analyzer {
	return core.AnalyzerFunc(func(now time.Duration, obs core.Observation) (core.Symptoms, error) {
		sym := core.Symptoms{Time: now}
		for _, p := range obs.Points {
			if p.Name == "subsys.queue" && p.Value > threshold {
				sym.Findings = append(sym.Findings, core.Finding{
					Kind: "backlog", Subject: p.Labels["sub"], Value: p.Value, Confidence: 1,
				})
			}
		}
		return sym, nil
	})
}

// drainPlanner plans to drain each flagged subsystem's full backlog.
func drainPlanner() core.Planner {
	return core.PlannerFunc(func(now time.Duration, sym core.Symptoms) (core.Plan, error) {
		plan := core.Plan{Time: now}
		for _, f := range sym.Findings {
			plan.Actions = append(plan.Actions, core.Action{
				Kind: "drain", Subject: f.Subject, Amount: f.Value, Confidence: 1,
			})
		}
		return plan, nil
	})
}

// runF2a measures how the decision latency of each pattern scales with the
// number of managed subsystems. The centralized Plan of master-worker is
// modeled with a cost quadratic in the inputs it must jointly consider
// (pairwise interference reasoning), local plans are constant, and each of
// the hierarchical pattern's sqrt(N) group masters pays the quadratic cost
// only over its own group. No parent level runs above the group masters.
func runF2a(opt Options) *Result {
	res := &Result{
		Title: "Decision latency vs managed-system count N",
		Claim: "centralized Plan \"suffers from limited scalability\"; hierarchical control aims " +
			"\"to improve scalability without compromising stability\"",
		Columns: []string{"N", "master-worker", "coordinated", "hierarchical"},
	}
	sizes := []int{4, 16, 64, 256}
	if opt.Quick {
		sizes = []int{4, 16, 64}
	}
	const (
		unit   = 500 * time.Microsecond // plan cost per considered pair/input
		window = 120 * time.Second
	)
	quadratic := func(n int) time.Duration { return time.Duration(n*n) * unit }

	for _, n := range sizes {
		latencies := map[string]time.Duration{}

		// Master-worker: one central A+P over all N subsystems.
		{
			engine := sim.NewEngine(opt.Seed)
			subs := makeSubsystems(n)
			cost := &planCost{per: quadratic, clock: sim.VirtualClock{Engine: engine}}
			runPatternWindow(engine, subs, window, masterLoop("mw", subs, cost).Tick)
			latencies["master-worker"] = meanLatency(cost.lat)
		}

		// Coordinated: N full local loops, each planning O(1).
		{
			engine := sim.NewEngine(opt.Seed)
			subs := makeSubsystems(n)
			coord := localFleet(subs)
			// Local plan cost is constant: model it as a fixed execution delay
			// by measuring it directly in the metrics (zero modeled delay).
			runPatternWindow(engine, subs, window, coord.Tick)
			var total core.Metrics
			for _, l := range coord.Loops() {
				m := l.Metrics()
				total.ExecutedActions += m.ExecutedActions
				total.DecisionLatency += m.DecisionLatency + time.Duration(1)*unit*time.Duration(m.ExecutedActions)
			}
			latencies["coordinated"] = meanLatency(total)
		}

		// Hierarchical: sqrt(N) group masters on one fleet, each planning
		// over its own group's members.
		{
			engine := sim.NewEngine(opt.Seed)
			subs := makeSubsystems(n)
			cost := &planCost{per: quadratic, clock: sim.VirtualClock{Engine: engine}}
			runPatternWindow(engine, subs, window, groupMasters(subs, int(math.Sqrt(float64(n))), cost).Tick)
			latencies["hierarchical"] = meanLatency(cost.lat)
		}

		res.AddRow(n,
			latencies["master-worker"].Truncate(time.Millisecond).String(),
			latencies["coordinated"].Truncate(time.Millisecond).String(),
			latencies["hierarchical"].Truncate(time.Millisecond).String(),
		)
	}
	res.AddNote("decision latency = symptom-to-execution delay; plan cost modeled as %v per jointly-considered input pair", unit)
	res.AddNote("master-worker grows O(N^2), coordinated stays flat, hierarchical pays O((N/sqrt(N))^2) per group")
	return res
}

func makeSubsystems(n int) []*subsystem {
	subs := make([]*subsystem, n)
	for i := range subs {
		subs[i] = &subsystem{name: fmt.Sprintf("s%03d", i), arrival: 3}
	}
	return subs
}

// localFleet gives each subsystem its own full MAPE-K loop (the coordinated
// pattern's members) and registers them all on one fleet coordinator. Each
// loop acts only on its own subsystem, so no action is ever arbitrated.
func localFleet(subs []*subsystem) *fleet.Coordinator {
	coord := fleet.New(0)
	for _, s := range subs {
		coord.Add(core.NewLoop(s.name, s, drainAnalyzer(5), drainPlanner(), s), 0)
	}
	return coord
}

// planCost models a master's centralized Plan, which "suffers from limited
// scalability", as a virtual-time delay before its actions reach the
// subsystems: per(n) for a master over n subsystems, waited on clock. lat
// accumulates each handed-off action and its delay.
type planCost struct {
	per   func(n int) time.Duration
	clock sim.Clock
	lat   core.Metrics
}

// masterLoop is the master-worker pattern as one core.Loop: its Monitor
// merges every subsystem's observation, Analyze and Plan run once centrally,
// and its Executor hands each action to the subsystem its Subject names —
// at once, or after the plan cost when cost is non-nil. A subsystem's
// Observe and Execute never fail.
func masterLoop(name string, subs []*subsystem, cost *planCost) *core.Loop {
	monitor := core.MonitorFunc(func(now time.Duration) (core.Observation, error) {
		merged := core.Observation{Time: now}
		for _, s := range subs {
			obs, _ := s.Observe(now)
			merged.Points = append(merged.Points, obs.Points...)
		}
		return merged, nil
	})
	handOff := core.ExecutorFunc(func(now time.Duration, a core.Action) (core.ActionResult, error) {
		i := slices.IndexFunc(subs, func(s *subsystem) bool { return s.name == a.Subject })
		if i < 0 {
			return core.ActionResult{}, fmt.Errorf("no subsystem %q", a.Subject)
		}
		s := subs[i]
		if cost == nil {
			return s.Execute(now, a)
		}
		delay := cost.per(len(subs))
		cost.clock.AfterFunc(delay, func() {
			_, _ = s.Execute(cost.clock.Now(), a)
			cost.lat.ExecutedActions++
			cost.lat.DecisionLatency += delay
		})
		return core.ActionResult{Action: a}, nil
	})
	return core.NewLoop(name, monitor, drainAnalyzer(5), drainPlanner(), handOff)
}

// groupMasters splits subs into at most groups (>= 1) contiguous groups of
// ceil(len/groups) and registers one master per group, in group order, on
// one fleet (the hierarchical pattern's group level).
func groupMasters(subs []*subsystem, groups int, cost *planCost) *fleet.Coordinator {
	per := (len(subs) + groups - 1) / groups
	coord := fleet.New(0)
	for g := 0; g*per < len(subs); g++ {
		coord.Add(masterLoop(fmt.Sprintf("g%d", g), subs[g*per:min((g+1)*per, len(subs))], cost), 0)
	}
	return coord
}

// runPatternWindow advances subsystems and ticks the controller once per
// second of virtual time until window.
func runPatternWindow(engine *sim.Engine, subs []*subsystem, window time.Duration, tick func(now time.Duration)) {
	engine.Every(time.Second, time.Second, func() bool {
		for _, s := range subs {
			s.step()
		}
		tick(engine.Now())
		return engine.Now() < window
	})
	engine.Run()
}

func meanLatency(m core.Metrics) time.Duration {
	if m.ExecutedActions == 0 {
		return 0
	}
	return m.DecisionLatency / time.Duration(m.ExecutedActions)
}

// ---- F2b: stability ----

// sharedResource models a congestible resource: latency explodes as total
// offered rate approaches capacity (M/M/1-style).
type sharedResource struct {
	capacity float64
	offered  []float64 // each loop's rate, in loop order
}

func (r *sharedResource) total() float64 {
	t := 0.0
	for _, v := range r.offered {
		t += v
	}
	return t
}

func (r *sharedResource) latency() float64 {
	util := r.total() / r.capacity
	if util >= 0.99 {
		util = 0.99
	}
	base := 1.0
	return base / (1 - util)
}

// runF2b contrasts uncoordinated local planners (each adapting its own rate
// from the shared latency signal) with intent-board coordination and
// hierarchical allocation, measuring oscillation of the aggregate offered
// load — the "instability and side-effects due to indirect interactions"
// the paper warns about.
func runF2b(opt Options) *Result {
	res := &Result{
		Title: "Aggregate-load oscillation on a shared resource, 16 local loops",
		Claim: "fully decentralized Plan \"may suffer from instability and side-effects due to " +
			"indirect interactions\"; coordination restores stability",
		Columns: []string{"variant", "mean-util", "osc-index", "p99-latency", "latency-violations"},
	}
	const (
		nLoops   = 16
		capacity = 1000.0
		target   = 4.0 // latency objective (units of base latency)
	)
	ticks := 600
	if opt.Quick {
		ticks = 300
	}

	type variant struct {
		name        string
		coordinated bool
		hierarchic  bool
	}
	for _, v := range []variant{
		{"uncoordinated", false, false},
		{"coordinated", true, false},
		{"hierarchical", false, true},
	} {
		rates := make([]float64, nLoops)
		for i := range rates {
			rates[i] = capacity / nLoops / 2
		}
		rsc := &sharedResource{capacity: capacity, offered: rates}
		// Hierarchical parent state: per-loop allocation.
		alloc := capacity * 0.85 / nLoops

		var utils, totals, lats []float64
		violations := 0
		for tick := 0; tick < ticks; tick++ {
			lat := rsc.latency()
			lats = append(lats, lat)
			if lat > target {
				violations++
			}
			// Parent (hierarchical only): every 10 ticks, set allocations
			// from the global picture, capped below the latency knee.
			if v.hierarchic && tick%10 == 0 {
				if lat > target {
					alloc *= 0.9
				} else {
					alloc *= 1.02
				}
				if alloc > capacity*0.72/nLoops {
					alloc = capacity * 0.72 / nLoops
				}
			}
			for i := 0; i < nLoops; i++ {
				switch {
				case v.hierarchic:
					// Children track the parent's allocation.
					rates[i] = alloc
				case v.coordinated:
					// Consult the rates peers already posted (this tick's
					// for lower indexes, last tick's for higher ones, summed
					// in index order): take a fair share of the remaining
					// headroom (below the latency knee) instead of reacting
					// to the shared latency signal.
					peers := 0.0
					for j, r := range rates {
						if j != i && (j < i || tick > 0) {
							peers += r
						}
					}
					headroom := capacity*0.72 - peers
					share := headroom
					if share > capacity*0.72/nLoops*1.5 {
						share = capacity * 0.72 / nLoops * 1.5
					}
					if share < 1 {
						share = 1
					}
					rates[i] = share
				default:
					// Greedy AIMD on the shared signal: everyone halves and
					// ramps together -> synchronized oscillation.
					if lat > target {
						rates[i] *= 0.5
					} else {
						rates[i] += capacity / nLoops * 0.2
					}
				}
				if rates[i] < 1 {
					rates[i] = 1
				}
			}
			totals = append(totals, rsc.total())
			utils = append(utils, rsc.total()/capacity)
		}
		osc := oscillationIndex(totals)
		res.AddRow(v.name,
			fmt.Sprintf("%.2f", meanF(utils)),
			fmt.Sprintf("%.3f", osc),
			fmt.Sprintf("%.1f", tsdb.Percentile(lats, 0.99)),
			violations,
		)
	}
	res.AddNote("osc-index = stddev(total offered load)/mean; the uncoordinated variant's synchronized halving/ramping shows as a high index")
	return res
}

func meanF(vs []float64) float64 {
	s := 0.0
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}

func oscillationIndex(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	m := meanF(vs)
	varsum := 0.0
	for _, v := range vs {
		d := v - m
		varsum += d * d
	}
	return math.Sqrt(varsum/float64(len(vs)-1)) / m
}

// ---- F2c: robustness ----

// runF2c injects controller failures mid-run and measures control coverage:
// the fraction of subsystems still receiving actions afterward.
func runF2c(opt Options) *Result {
	res := &Result{
		Title: "Control coverage after controller failures, 16 subsystems",
		Claim: "distributed autonomy is \"useful for robust and resilient operations\"; " +
			"operations \"must persist through component and subsystem failures\"",
		Columns: []string{"pattern", "failure", "coverage-before", "coverage-after", "max-backlog-after"},
	}
	const n = 16
	window := 240 * time.Second
	if opt.Quick {
		window = 120 * time.Second
	}
	half := window / 2

	// Each scenario wires one pattern over the subsystems and returns its
	// tick and the failure to inject: a dead controller is a paused loop
	// (pausing a running loop cannot fail).
	type scenario struct {
		name, failure string
		build         func(subs []*subsystem) (tick func(time.Duration), fail func())
	}
	scenarios := []scenario{
		{"master-worker", "master dies", func(subs []*subsystem) (func(time.Duration), func()) {
			mw := masterLoop("mw", subs, nil)
			return mw.Tick, func() { _ = mw.Pause() }
		}},
		{"coordinated", "25% of loops die", func(subs []*subsystem) (func(time.Duration), func()) {
			coord := localFleet(subs)
			return coord.Tick, func() {
				for _, l := range coord.Loops()[:n/4] {
					_ = l.Pause()
				}
			}
		}},
		// This model's parent holds no state the group masters depend on, so
		// its death changes nothing and the row equals the no-failure
		// baseline.
		{"hierarchical", "parent dies", func(subs []*subsystem) (func(time.Duration), func()) {
			return groupMasters(subs, 4, nil).Tick, func() {}
		}},
		{"hierarchical", "1 of 4 group masters dies", func(subs []*subsystem) (func(time.Duration), func()) {
			coord := groupMasters(subs, 4, nil)
			return coord.Tick, func() { _ = coord.Loops()[0].Pause() }
		}},
	}

	for _, sc := range scenarios {
		engine := sim.NewEngine(opt.Seed)
		subs := makeSubsystems(n)
		tick, fail := sc.build(subs)
		// Snapshot per-subsystem action counts at the failure instant so
		// coverage can be attributed to each half of the window. Registered
		// before the pattern's ticks, the failure lands ahead of the tick at
		// the same instant.
		atHalf := make([]int, len(subs))
		engine.At(half, func() {
			fail()
			for i, s := range subs {
				atHalf[i] = s.actions
			}
		})
		runPatternWindow(engine, subs, window, tick)
		before, after := 0, 0
		maxBacklog := 0.0
		for i, s := range subs {
			if atHalf[i] > 0 {
				before++
			}
			if s.actions > atHalf[i] {
				after++
			}
			if s.queue > maxBacklog {
				maxBacklog = s.queue
			}
		}
		res.AddRow(sc.name, sc.failure,
			pct(float64(before), n), pct(float64(after), n),
			fmt.Sprintf("%.0f", maxBacklog))
	}
	res.AddNote("coverage-after = subsystems still receiving control actions after the failure at t=%v", half)
	res.AddNote("master-worker loses all control with its master; decentralized patterns degrade only where loops died")
	return res
}
