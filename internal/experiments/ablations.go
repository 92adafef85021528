package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"autoloop/internal/analytics"
	"autoloop/internal/core"
	"autoloop/internal/knowledge"
	"autoloop/internal/sim"
)

// runA1 ablates the K of MAPE-K in the Scheduler case: no knowledge, cold
// knowledge (learned within the run), and warm knowledge (pre-trained on a
// prior campaign of the same applications).
func runA1(opt Options) *Result {
	res := &Result{
		Title: "Scheduler loop with Knowledge off / cold / warm",
		Claim: "Analyze the progress relative to representative historical application run times; " +
			"prior Knowledge (running time, progress rate) informs the Plan",
		Columns: []string{"knowledge", "completed-all", "killed", "extensions", "pred-rel-err", "overext-nodeh"},
	}

	run := func(useKB bool, warm *knowledge.Base) schedOutcome {
		sc := defaultScenario(opt)
		sc.Hard = true // noisy, drifting applications: live fits alone mislead
		sc.LoopEnabled = true
		sc.LoopConfig.UseKnowledge = useKB
		sc.WarmKB = warm
		return runSchedScenario(sc)
	}

	addRow := func(name string, out schedOutcome) {
		res.AddRow(name,
			fmt.Sprintf("%d/%d", out.CompletedAll, out.Submitted),
			out.KilledWall,
			out.ExtGranted+out.ExtPartial,
			fmt.Sprintf("%.2f", out.Assess.MeanRelErr),
			fmt.Sprintf("%.1f", out.OverExtensionH),
		)
	}

	addRow("off", run(false, nil))
	cold := run(true, nil)
	addRow("cold", cold)
	// Warm: reuse the knowledge base produced by the cold campaign for a
	// second identical campaign, then a third.
	warm := run(true, cold.KB)
	addRow("warm (2nd campaign)", warm)
	addRow("warm (3rd campaign)", run(true, warm.KB))
	res.AddNote("off and cold coincide on first contact by construction: Knowledge pays off on repeat " +
		"workloads, which dominate production HPC — the warm rows show the learned corrections cutting over-extension")
	res.AddNote("pred-rel-err is the mean relative error of the loop's completion-time predictions at extension time")
	return res
}

// runA2 sweeps the confidence gate on extension actions: too low admits
// sloppy early extensions (over-extension), too high starves the loop.
func runA2(opt Options) *Result {
	res := &Result{
		Title:   "Confidence gate threshold sweep on the Scheduler loop",
		Claim:   "confidence measures are required as we move beyond human-in-the-loop decision-making",
		Columns: []string{"gate", "completed-all", "killed", "extensions", "vetoed", "overext-nodeh"},
	}
	for _, gate := range []float64{0, 0.70, 0.74, 0.80} {
		sc := defaultScenario(opt)
		sc.LoopEnabled = true
		sc.ConfidenceGate = gate
		out := runSchedScenario(sc)
		label := "none"
		if gate > 0 {
			label = fmt.Sprintf("%.2f", gate)
		}
		res.AddRow(label,
			fmt.Sprintf("%d/%d", out.CompletedAll, out.Submitted),
			out.KilledWall,
			out.ExtGranted+out.ExtPartial,
			out.Loop.VetoedActions,
			fmt.Sprintf("%.1f", out.OverExtensionH),
		)
	}
	res.AddNote("the gate combines forecast-interval tightness with the application's realized prediction accuracy")
	return res
}

// runA3 compares operating modes: autonomous, human-on-the-loop (notify,
// act immediately), human-in-the-loop (wait for approval), and
// human-in-the-loop with a contingency timer — quantifying "having a human
// in the loop limits the speed of response".
func runA3(opt Options) *Result {
	res := &Result{
		Title: "Operating-mode comparison on the Scheduler loop",
		Claim: "having a human in the loop limits the speed of response and consequently the " +
			"opportunities for feedback-driven improvements; human-on-the-loop continues without waiting",
		Columns: []string{"mode", "completed-all", "killed", "executed", "dropped",
			"mean-decision-latency", "notifications"},
	}
	human := simApprover{
		Latency:      sim.LogNormal{MeanV: 25 * time.Minute, CV: 0.8},
		Availability: 0.7,
	}
	contingency := human
	contingency.ContingencyAfter = time.Hour
	type variant struct {
		name   string
		mode   core.Mode
		human  simApprover
		notify bool
	}
	variants := []variant{
		{"autonomous", core.Autonomous, simApprover{}, false},
		{"human-on-the-loop", core.HumanOnTheLoop, simApprover{}, true},
		{"human-in-the-loop", core.HumanInTheLoop, human, false},
		{"in-the-loop+contingency", core.HumanInTheLoop, contingency, false},
	}
	for _, v := range variants {
		sc := defaultScenario(opt)
		sc.LoopEnabled = true
		sc.LoopMode = v.mode
		sc.Human = v.human
		out := runSchedScenario(sc)
		notifications := 0
		if v.notify {
			notifications = out.Loop.ExecutedActions
		}
		res.AddRow(v.name,
			fmt.Sprintf("%d/%d", out.CompletedAll, out.Submitted),
			out.KilledWall,
			out.Loop.ExecutedActions,
			out.Loop.DeniedActions,
			out.MeanDecisionLatency.Truncate(time.Second).String(),
			notifications,
		)
	}
	res.AddNote("human model: log-normal response with a 25m mean (19.5m median), 70%% availability; contingency executes after 1h of silence")
	res.AddNote("dropped actions are extension requests that never executed because the approver was absent")
	return res
}

// runA4 pits a static (frozen after warmup) forecaster against a continually
// updated one on a progress-rate series whose regime shifts mid-stream —
// §IV's argument that "the constantly evolving nature of the environment
// requires continual/lifelong AI".
func runA4(opt Options) *Result {
	res := &Result{
		Title: "Static vs continual forecasting across a workload regime shift",
		Claim: "simply applying present AI tools will not suffice: models must evolve with the " +
			"environment at small overhead (continual/lifelong learning)",
		Columns: []string{"model", "mape-before-shift", "mape-after-shift", "degradation"},
	}
	n := 2000
	if opt.Quick {
		n = 800
	}
	shift := n / 2
	rng := rand.New(rand.NewSource(opt.Seed))

	// The signal: per-iteration application throughput; the regime shift
	// models a library upgrade/system change altering both level and trend.
	signal := make([]float64, n)
	for i := range signal {
		base := 100 + 0.02*float64(i)
		if i >= shift {
			base = 160 - 0.03*float64(i-shift)
		}
		signal[i] = base + rng.NormFloat64()*3
	}

	type model struct {
		name     string
		frozen   bool
		forecast analytics.Forecaster
	}
	models := []model{
		{"static (frozen at warmup)", true, analytics.NewHolt(0.3, 0.1)},
		{"continual (always updating)", false, analytics.NewHolt(0.3, 0.1)},
		{"continual windowed OLS", false, analytics.NewWindowOLS(60)},
	}
	warmup := shift / 2
	for _, m := range models {
		var errBefore, errAfter []float64
		for i := 0; i < n-1; i++ {
			t := float64(i)
			if !m.frozen || i < warmup {
				m.forecast.Observe(t, signal[i])
			}
			if i < warmup {
				continue
			}
			pred := m.forecast.Predict(1)
			if !pred.OK() {
				continue
			}
			actual := signal[i+1]
			relErr := math.Abs(pred.Value-actual) / math.Abs(actual)
			if i+1 < shift {
				errBefore = append(errBefore, relErr)
			} else if i+1 >= shift+50 { // skip the immediate transient
				errAfter = append(errAfter, relErr)
			}
		}
		before, after := meanF(errBefore), meanF(errAfter)
		res.AddRow(m.name,
			fmt.Sprintf("%.3f", before),
			fmt.Sprintf("%.3f", after),
			fmt.Sprintf("%.1fx", after/math.Max(before, 1e-9)),
		)
	}
	res.AddNote("regime shift at sample %d changes level and inverts the trend; static models never see it", shift)
	return res
}
