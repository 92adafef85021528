package experiments

import (
	"fmt"
	"time"

	"autoloop/internal/sched"
)

// runF3 reproduces the paper's flagship case. The paper's incentive
// statement — "increase in completed and decrease in resubmitted jobs" plus
// reduced wasted allocation — is measured against three baselines: users as
// they are (no loop), users padding 2x, and oracle users.
func runF3(opt Options) *Result {
	res := &Result{
		Title: "Walltime-extension autonomy loop vs baselines",
		Claim: "adopting the loop increases completed jobs and decreases resubmitted jobs (§III(v)) " +
			"without unbounded impact on other users",
		Columns: []string{"mode", "completed-1st", "completed-all", "killed", "resubmits",
			"wasted-nodeh", "mean-wait", "extensions", "ext-denied", "makespan-h"},
	}
	type mode struct {
		name   string
		mutate func(*schedScenario)
	}
	modes := []mode{
		{"no-loop", func(sc *schedScenario) {}},
		{"padding-2x", func(sc *schedScenario) { sc.PaddingFactor = 2.0 }},
		{"autonomy-loop", func(sc *schedScenario) { sc.LoopEnabled = true }},
		{"oracle-user", func(sc *schedScenario) { sc.Oracle = true }},
	}
	for _, m := range modes {
		sc := defaultScenario(opt)
		m.mutate(&sc)
		out := runSchedScenario(sc)
		res.AddRow(
			m.name,
			fmt.Sprintf("%d/%d (%s)", out.CompletedFirst, out.Submitted, pct(float64(out.CompletedFirst), float64(out.Submitted))),
			fmt.Sprintf("%d/%d", out.CompletedAll, out.Submitted),
			out.KilledWall,
			out.Resubmits,
			fmt.Sprintf("%.1f", out.WastedNodeH),
			out.MeanWait.Truncate(time.Second).String(),
			fmt.Sprintf("%d (+%d partial)", out.ExtGranted, out.ExtPartial),
			out.ExtDenied,
			fmt.Sprintf("%.1f", out.Makespan.Hours()),
		)
	}
	res.AddNote("completed-1st counts workload items finishing without resubmission; killed counts walltime kills across all attempts")
	res.AddNote("the loop should approach oracle completion rates while no-loop pays kills+resubmits and padding-2x pays queue wait")
	return res
}

// runF3b sweeps the trust guardrails the paper names in §III(iv): limits on
// the number and total of extensions, and the backfill guard protecting
// other users' opportunities; it reports extension accuracy ("comparison of
// the time extension with the actual application run time").
func runF3b(opt Options) *Result {
	res := &Result{
		Title: "Extension guardrails, accuracy, and backfill impact",
		Claim: "validation via extension-vs-actual comparison; controls limit extensions per job; " +
			"overestimation shows up as untaken backfill opportunities",
		Columns: []string{"policy", "completed-all", "ext-granted", "ext-denied", "over-est", "under-est",
			"rel-err", "overext-nodeh", "untaken-backfill"},
	}
	type policyRow struct {
		name   string
		policy sched.ExtensionPolicy
	}
	policies := []policyRow{
		{"cap1+guard", sched.ExtensionPolicy{MaxPerJob: 1, MaxTotalPerJob: 2 * time.Hour, BackfillGuard: true}},
		{"cap3+guard", sched.ExtensionPolicy{MaxPerJob: 3, MaxTotalPerJob: 6 * time.Hour, BackfillGuard: true}},
		{"cap3-noguard", sched.ExtensionPolicy{MaxPerJob: 3, MaxTotalPerJob: 6 * time.Hour, BackfillGuard: false}},
		{"uncapped-noguard", sched.ExtensionPolicy{MaxPerJob: 50, MaxTotalPerJob: 100 * time.Hour, BackfillGuard: false}},
	}
	for _, p := range policies {
		sc := defaultScenario(opt)
		sc.LoopEnabled = true
		sc.Policy = p.policy
		out := runSchedScenario(sc)
		res.AddRow(
			p.name,
			fmt.Sprintf("%d/%d", out.CompletedAll, out.Submitted),
			out.ExtGranted+out.ExtPartial,
			out.ExtDenied,
			out.Assess.OverCount,
			out.Assess.UnderCount,
			fmt.Sprintf("%.2f", out.Assess.MeanRelErr),
			fmt.Sprintf("%.1f", out.OverExtensionH),
			out.UntakenBackfill.Truncate(time.Second).String(),
		)
	}
	res.AddNote("over/under-est compare the loop's predicted completion time against the realized one per extension")
	res.AddNote("untaken-backfill accumulates only without the guard: the price other users pay for overestimated extensions")
	return res
}
