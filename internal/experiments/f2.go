package experiments

import (
	"fmt"
	"math"
	"time"

	"autoloop/internal/core"
	"autoloop/internal/sim"
	"autoloop/internal/telemetry"
	"autoloop/internal/tsdb"
)

// ---- shared managed subsystem for the pattern experiments ----

// subsystem is a minimal managed system: a work queue that grows at a fixed
// arrival rate; the control action drains it. It exposes a Monitor (queue
// depth) and an Executor (drain), i.e. exactly the M/E split of the
// master-worker pattern.
type subsystem struct {
	name    string
	queue   float64
	arrival float64 // work per tick
	drained float64
	actions int
	lastAct time.Duration
}

func (s *subsystem) step() { s.queue += s.arrival }

func (s *subsystem) monitor() core.Monitor {
	return core.MonitorFunc(func(now time.Duration) (core.Observation, error) {
		return core.Observation{Time: now, Points: []telemetry.Point{{
			Name: "subsys.queue", Labels: telemetry.Labels{"sub": s.name}, Time: now, Value: s.queue,
		}}}, nil
	})
}

func (s *subsystem) executor() core.Executor {
	return core.ExecutorFunc(func(now time.Duration, a core.Action) (core.ActionResult, error) {
		amount := math.Min(a.Amount, s.queue)
		s.queue -= amount
		s.drained += amount
		s.actions++
		s.lastAct = now
		return core.ActionResult{Action: a, Honored: true, Granted: amount}, nil
	})
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
// (pairwise interference reasoning), local plans are constant, and the
// hierarchical parent pays the quadratic cost only over its direct children
// (groups), on a slower cadence.
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
	planCost := func(n int) time.Duration { return time.Duration(n*n) * unit }

	for _, n := range sizes {
		latencies := map[string]time.Duration{}

		// Master-worker: one central A+P over all N workers.
		{
			engine := sim.NewEngine(opt.Seed)
			subs, workers := makeSubsystems(n)
			mw := core.NewMasterWorker("mw", drainAnalyzer(5), drainPlanner(), workers)
			mw.Clock = sim.VirtualClock{Engine: engine}
			mw.PlanCost = planCost
			runPatternWindow(engine, subs, window, mw.Tick)
			latencies["master-worker"] = meanLatency(mw.Metrics())
		}

		// Coordinated: N full local loops, each planning O(1).
		{
			engine := sim.NewEngine(opt.Seed)
			subs, _ := makeSubsystems(n)
			loops := localLoops(subs)
			// Local plan cost is constant: model it as a fixed execution delay
			// by measuring it directly in the metrics (zero modeled delay).
			runPatternWindow(engine, subs, window, core.NewCoordinated("coord", loops).Tick)
			var total core.Metrics
			for _, l := range loops {
				m := l.Metrics()
				total.ExecutedActions += m.ExecutedActions
				total.DecisionLatency += m.DecisionLatency + time.Duration(1)*unit*time.Duration(m.ExecutedActions)
			}
			latencies["coordinated"] = meanLatency(total)
		}

		// Hierarchical: sqrt(N) groups; each group master plans over its
		// members, the parent plans over group aggregates every 10 ticks.
		{
			engine := sim.NewEngine(opt.Seed)
			subs, workers := makeSubsystems(n)
			masters := groupMasters(workers, int(math.Sqrt(float64(n))))
			for _, mw := range masters {
				mw.Clock = sim.VirtualClock{Engine: engine}
				mw.PlanCost = planCost // quadratic, but only over group size
			}
			runPatternWindow(engine, subs, window, tickAll(masters))
			var total core.Metrics
			for _, mw := range masters {
				m := mw.Metrics()
				total.ExecutedActions += m.ExecutedActions
				total.DecisionLatency += m.DecisionLatency
			}
			latencies["hierarchical"] = meanLatency(total)
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

func makeSubsystems(n int) ([]*subsystem, []*core.Worker) {
	subs := make([]*subsystem, n)
	workers := make([]*core.Worker, n)
	for i := 0; i < n; i++ {
		s := &subsystem{name: fmt.Sprintf("s%03d", i), arrival: 3}
		subs[i] = s
		workers[i] = core.NewWorker(s.name, s.monitor(), s.executor())
	}
	return subs, workers
}

// localLoops gives each subsystem its own full MAPE-K loop (the coordinated
// pattern's members).
func localLoops(subs []*subsystem) []*core.Loop {
	loops := make([]*core.Loop, len(subs))
	for i, s := range subs {
		loops[i] = core.NewLoop(s.name, s.monitor(), drainAnalyzer(5), drainPlanner(), s.executor())
	}
	return loops
}

// groupMasters splits workers into at most groups contiguous groups of
// ceil(len/groups) and gives each its own master (the hierarchical pattern's
// group level).
func groupMasters(workers []*core.Worker, groups int) []*core.MasterWorker {
	if groups < 1 {
		groups = 1
	}
	per := (len(workers) + groups - 1) / groups
	var masters []*core.MasterWorker
	for g := 0; g*per < len(workers); g++ {
		group := workers[g*per : min((g+1)*per, len(workers))]
		masters = append(masters, core.NewMasterWorker(fmt.Sprintf("g%d", g), drainAnalyzer(5), drainPlanner(), group))
	}
	return masters
}

// tickAll ticks every master in order.
func tickAll(masters []*core.MasterWorker) func(now time.Duration) {
	return func(now time.Duration) {
		for _, mw := range masters {
			mw.Tick(now)
		}
	}
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
	offered  map[string]float64
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
		rsc := &sharedResource{capacity: capacity, offered: map[string]float64{}}
		board := core.NewIntentBoard()
		rates := make([]float64, nLoops)
		for i := range rates {
			rates[i] = capacity / nLoops / 2
			rsc.offered[fmt.Sprintf("l%02d", i)] = rates[i]
		}
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
				name := fmt.Sprintf("l%02d", i)
				switch {
				case v.hierarchic:
					// Children track the parent's allocation.
					rates[i] = alloc
				case v.coordinated:
					// Consult peers' posted intents: take a fair share of
					// the remaining headroom (below the latency knee)
					// instead of reacting to the shared latency signal.
					peers := board.SumAmount(name, "rate")
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
				rsc.offered[name] = rates[i]
				board.Post(time.Duration(tick)*time.Second, name, core.Action{Kind: "rate", Amount: rates[i]})
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
	// tick and the failure to inject.
	type scenario struct {
		name, failure string
		build         func(subs []*subsystem, workers []*core.Worker) (tick func(time.Duration), fail func())
	}
	scenarios := []scenario{
		{"master-worker", "master dies", func(_ []*subsystem, workers []*core.Worker) (func(time.Duration), func()) {
			mw := core.NewMasterWorker("mw", drainAnalyzer(5), drainPlanner(), workers)
			return mw.Tick, func() { mw.SetEnabled(false) }
		}},
		{"coordinated", "25% of loops die", func(subs []*subsystem, _ []*core.Worker) (func(time.Duration), func()) {
			loops := localLoops(subs)
			return core.NewCoordinated("coord", loops).Tick, func() {
				for _, l := range loops[:n/4] {
					l.SetEnabled(false)
				}
			}
		}},
		// This model's parent holds no state the group masters depend on, so
		// its death changes nothing and the row equals the no-failure
		// baseline.
		{"hierarchical", "parent dies", func(_ []*subsystem, workers []*core.Worker) (func(time.Duration), func()) {
			return tickAll(groupMasters(workers, 4)), func() {}
		}},
		{"hierarchical", "1 of 4 group masters dies", func(_ []*subsystem, workers []*core.Worker) (func(time.Duration), func()) {
			masters := groupMasters(workers, 4)
			return tickAll(masters), func() { masters[0].SetEnabled(false) }
		}},
	}

	for _, sc := range scenarios {
		engine := sim.NewEngine(opt.Seed)
		subs, workers := makeSubsystems(n)
		tick, fail := sc.build(subs, workers)
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
