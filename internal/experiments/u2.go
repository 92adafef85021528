package experiments

import (
	"fmt"
	"time"

	"autoloop/internal/cases/ioqoscase"
	"autoloop/internal/knowledge"
	"autoloop/internal/pfs"
	"autoloop/internal/sim"
	"autoloop/internal/telemetry"
	"autoloop/internal/tsdb"
)

// runU2 reproduces the I/O QoS scenario: a deadline-dependent workflow
// shares the filesystem with a saturating best-effort tenant, under three
// QoS regimes.
func runU2(opt Options) *Result {
	res := &Result{
		Title: "Deadline tenant vs saturating interferer on a shared PFS",
		Claim: "adapt QoS parameters ... to decrease interference, reduce tail latency, and provide " +
			"more consistent results for deadline dependent workflows",
		Columns: []string{"qos-regime", "victim-p50-ms", "victim-p99-ms", "deadline-misses",
			"victim-consistency-cv", "interferer-MB"},
	}
	horizon := 45 * time.Minute
	if opt.Quick {
		horizon = 20 * time.Minute
	}
	const deadlineMS = 2000.0 // a victim write is "missed" beyond 2s

	type regime struct {
		name     string
		noQoS    bool
		adaptive bool
	}
	for _, rg := range []regime{
		{"none", true, false},
		{"static", false, false},
		{"adaptive", false, true},
	} {
		engine := sim.NewEngine(opt.Seed)
		db := tsdb.New(0)
		fs := pfs.New(engine, pfs.Config{OSTs: 4, OSTBandwidthMBps: 100, DefaultStripeCount: 2})
		kb := knowledge.NewBase()
		pipe := telemetry.NewPipeline(telemetry.NewRegistryOf(fs.Collector()), db)
		engine.Every(10*time.Second, 10*time.Second, func() bool {
			pipe.Sample(engine.Now())
			return engine.Now() < horizon
		})
		tenants := []ioqoscase.Tenant{
			{Name: "deadline", Priority: 3, TargetLatMS: 500},
			{Name: "batch", Priority: 1},
		}
		switch {
		case rg.adaptive:
			ctl := ioqoscase.New(ioqoscase.DefaultConfig(tenants, 2000), db, fs, kb)
			h := ctl.Hierarchy(3)
			h.RunEvery(sim.VirtualClock{Engine: engine}, 10*time.Second, func() bool { return engine.Now() >= horizon })
		case !rg.noQoS:
			fs.SetQoS("deadline", 1500, 3000)
			fs.SetQoS("batch", 500, 1000)
		}

		var victimLats, steadyLats []float64
		var interfererMB float64
		steadyFrom := horizon / 2
		// Closed-loop interferer: 8 streams of 150MB writes, reissued on
		// completion — enough to keep the 400 MB/s backend saturated when
		// unthrottled.
		bf := fs.Open("batch", 4, nil)
		var issue func()
		issue = func() {
			if engine.Now() >= horizon {
				return
			}
			fs.Write(bf, 150, func(time.Duration) {
				interfererMB += 150
				issue()
			})
		}
		for i := 0; i < 8; i++ {
			issue()
		}
		vf := fs.Open("deadline", 2, nil)
		engine.Every(10*time.Second, 10*time.Second, func() bool {
			fs.Write(vf, 50, func(l time.Duration) {
				victimLats = append(victimLats, l.Seconds()*1000)
				if engine.Now() >= steadyFrom {
					steadyLats = append(steadyLats, l.Seconds()*1000)
				}
			})
			return engine.Now() < horizon
		})
		engine.RunUntil(horizon)

		misses := 0
		for _, l := range victimLats {
			if l > deadlineMS {
				misses++
			}
		}
		p50 := tsdb.Percentile(victimLats, 0.5)
		cv := 0.0
		if len(steadyLats) > 1 && meanF(steadyLats) > 0 {
			cv = oscillationIndex(steadyLats)
		}
		res.AddRow(rg.name,
			fmt.Sprintf("%.0f", p50),
			fmt.Sprintf("%.0f", tsdb.Percentile(victimLats, 0.99)),
			fmt.Sprintf("%d/%d", misses, len(victimLats)),
			fmt.Sprintf("%.2f", cv),
			fmt.Sprintf("%.0f", interfererMB),
		)
	}
	res.AddNote("interferer: 8 closed-loop 150MB write streams saturating the 400 MB/s backend; static buckets are the loose campaign estimates (1500/500)")
	res.AddNote("consistency-cv = stddev/mean of victim latencies in the steady second half (the paper's 'more consistent results')")
	return res
}
