package scenario_test

import (
	"testing"
	"time"

	"autoloop/internal/cases"
	"autoloop/internal/control"
	"autoloop/internal/scenario"
)

// TestOnlineScoreMatchesBatch runs every preset at seeds 1-3 and requires
// the scorer's fold-on-arrival to give the report the two-pass fold over
// the same events gives. The daemon preset's century horizon is cut to a
// day.
func TestOnlineScoreMatchesBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("runs twelve scenarios end to end")
	}
	presets := []struct {
		name    string
		spec    func(int64) *scenario.Spec
		horizon time.Duration
	}{
		{"small", scenario.Small, 0},
		{"midsize", scenario.Midsize, 0},
		{"stress10k", scenario.Stress10k, 0},
		{"daemon", scenario.Daemon, 24 * time.Hour},
	}
	for _, p := range presets {
		for seed := int64(1); seed <= 3; seed++ {
			spec := p.spec(seed)
			if p.horizon > 0 {
				spec.Horizon = control.Duration(p.horizon)
			}
			rt, err := scenario.Assemble(spec, cases.NewRegistry())
			if err != nil {
				t.Fatal(err)
			}
			events := scenario.RecordLoopEvents(rt.Bus)
			rep, err := rt.Run()
			if err != nil {
				t.Fatal(err)
			}
			scenario.CheckOnlineMatchesBatch(t, p.name, rt, rep, *events)
			if p.name != "daemon" && rep.Scores.Findings+rep.Scores.Actions == 0 {
				t.Errorf("%s seed %d scored nothing: the comparison shows nothing", p.name, seed)
			}
		}
	}
}
