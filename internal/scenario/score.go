package scenario

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"autoloop/internal/bus"
	"autoloop/internal/core"
)

// binding is one loop's scoring attribution policy, resolved at spawn time
// from the scenario's Loop entry and the case defaults.
type binding struct {
	domain   string
	findings map[string]bool // nil counts every finding kind
	actions  map[string]bool // nil counts every action kind
}

// scorer folds the fleet's findings and honored executions off the bus into
// the run's Scores and one InjectionOutcome per armed window, as each event
// arrives, so a run keeps no event history. Every window is armed in
// AssembleOn before the engine runs, so each event meets every window it can
// fall in. The bus dispatch under the simulator is effectively
// single-threaded (the fleet coordinator replays buffered loop events
// serially on the tick goroutine), so no locking is needed.
type scorer struct {
	grace    time.Duration // how long past its end a window still attributes
	bindings map[string]*binding
	outcomes []InjectionOutcome // one per armed window, in arm order
	scores   Scores             // the event counts; score adds the window totals
}

func newScorer(b *bus.Bus, grace time.Duration) *scorer {
	if grace <= 0 {
		grace = 10 * time.Minute
	}
	s := &scorer{grace: grace, bindings: make(map[string]*binding)}
	b.Subscribe("loop.*", func(env bus.Envelope) {
		switch env.Topic[strings.LastIndexByte(env.Topic, '.')+1:] {
		case "finding":
			if f, ok := env.Payload.(*core.Finding); ok {
				s.fold(env.Source, env.Time, f.Kind, false)
			}
		case "execute":
			if r, ok := env.Payload.(*core.ActionResult); ok && r.Honored {
				s.fold(env.Source, env.Time, r.Action.Kind, true)
			}
		}
	})
	return s
}

// fold scores one finding (execute false) or honored execution of kind by
// loop at t. Only scored loops count: an unscored deployment (a daemon's
// fleet, loops spawned later over the wire) leaves no trace.
func (s *scorer) fold(loop string, t time.Duration, kind string, execute bool) {
	b := s.bindings[loop]
	if b == nil || b.domain == "" {
		return
	}
	counted := b.findings
	if execute {
		counted = b.actions
	}
	if counted != nil && !counted[kind] {
		return
	}
	covered := false // by a real window of the loop's domain
	for i := range s.outcomes {
		w := &s.outcomes[i]
		if w.Domain != b.domain || t < w.At || t > w.End+s.grace {
			continue
		}
		covered = covered || !w.Phantom
		switch {
		case !execute && !w.Detected:
			w.Detected, w.DetectLat, w.By = true, t-w.At, loop
		case execute && w.Detected && !w.Responded:
			// A response only counts once the fault was detected: events
			// arrive in time order, so routine in-window actions fired
			// before the first matching finding never claim the MTTR.
			w.Responded, w.MTTR = true, t-w.At
		}
	}
	if execute {
		s.scores.Actions++
		if covered {
			s.scores.AttributedActions++
		}
	} else {
		s.scores.Findings++
		if !covered {
			s.scores.FalseFindings++
		}
	}
}

// bind registers one spawned loop's attribution policy.
func (s *scorer) bind(loop string, b *binding) { s.bindings[loop] = b }

func toSet(kinds []string) map[string]bool {
	if len(kinds) == 0 {
		return nil
	}
	m := make(map[string]bool, len(kinds))
	for _, k := range kinds {
		m[k] = true
	}
	return m
}

// InjectionOutcome is one injection's scored row.
type InjectionOutcome struct {
	Kind    string
	Domain  string
	Phantom bool
	At, End time.Duration
	Detail  string

	// Detected/Responded report whether any matching-domain loop found the
	// fault and executed a response inside the attribution window. For
	// phantom injections they measure how badly the fleet was fooled.
	Detected  bool
	DetectLat time.Duration
	By        string
	Responded bool
	MTTR      time.Duration
}

// Scores aggregates a scenario run.
type Scores struct {
	// Windows counts real (non-phantom) injections; Detected/Responded how
	// many were found and responded to within their windows.
	Windows, Detected, Responded int
	// MeanMTTR averages injection-to-first-response over responded real
	// injections.
	MeanMTTR time.Duration
	// Findings counts scored findings; FalseFindings those landing outside
	// every matching real window (sensor flaps, spurious detections).
	Findings, FalseFindings int
	// Actions counts scored honored executions; AttributedActions those
	// landing inside a matching real window.
	Actions, AttributedActions int
}

// FPRate is FalseFindings / Findings (0 when no findings).
func (s Scores) FPRate() float64 {
	if s.Findings == 0 {
		return 0
	}
	return float64(s.FalseFindings) / float64(s.Findings)
}

// Efficiency is AttributedActions / Actions (0 when no actions).
func (s Scores) Efficiency() float64 {
	if s.Actions == 0 {
		return 0
	}
	return float64(s.AttributedActions) / float64(s.Actions)
}

// Report is one scenario run's deterministic scorecard.
type Report struct {
	Name       string
	Seed       int64
	Horizon    time.Duration
	Nodes      int
	Loops      []string
	Samples    uint64
	Points     uint64
	Injections []InjectionOutcome
	Scores     Scores
}

// totals returns the run's scores and windows so far: the folded event
// counts plus each real window's detection and response.
func (s *scorer) totals() (Scores, []InjectionOutcome) {
	sc := s.scores
	var mttrSum time.Duration
	for _, out := range s.outcomes {
		if out.Phantom {
			continue
		}
		sc.Windows++
		if out.Detected {
			sc.Detected++
		}
		if out.Responded {
			sc.Responded++
			mttrSum += out.MTTR
		}
	}
	if sc.Responded > 0 {
		sc.MeanMTTR = mttrSum / time.Duration(sc.Responded)
	}
	return sc, slices.Clone(s.outcomes)
}

// score reports the run.
func (rt *Runtime) score() *Report {
	rep := &Report{
		Name:    rt.spec.Name,
		Seed:    rt.spec.Seed,
		Horizon: rt.horizon,
		Nodes:   rt.spec.Facility.Nodes,
	}
	rep.Scores, rep.Injections = rt.scorer.totals()
	rep.Samples, rep.Points, _ = rt.Pipe.Stats()
	return rep
}

// Table renders the report as an aligned, deterministic text table — the
// EXP-S* artifact shape. Identical spec + seed always yields identical
// bytes.
func (r *Report) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario %s (seed %d, %d nodes, horizon %v)\n", r.Name, r.Seed, r.Nodes, r.Horizon)
	cols := []string{"injection", "domain", "at", "end", "detected", "detect-lat", "responded", "mttr", "by"}
	rows := make([][]string, 0, len(r.Injections))
	for _, o := range r.Injections {
		kind := o.Kind
		if o.Phantom {
			kind += " (phantom)"
		}
		det, lat, resp, mttr, by := "no", "-", "no", "-", "-"
		if o.Detected {
			det, lat, by = "yes", o.DetectLat.String(), o.By
			if o.Phantom {
				det = "fooled"
			}
		}
		if o.Responded {
			resp, mttr = "yes", o.MTTR.String()
			if o.Phantom {
				resp = "fooled"
			}
		}
		rows = append(rows, []string{kind, o.Domain, o.At.String(), o.End.String(), det, lat, resp, mttr, by})
	}
	WriteAligned(&b, cols, rows)
	s := r.Scores
	fmt.Fprintf(&b, "detected %d/%d, responded %d/%d, mean MTTR %v\n",
		s.Detected, s.Windows, s.Responded, s.Windows, s.MeanMTTR)
	fmt.Fprintf(&b, "findings %d (false %d, fp-rate %.3f); actions %d (attributed %d, efficiency %.3f)\n",
		s.Findings, s.FalseFindings, s.FPRate(), s.Actions, s.AttributedActions, s.Efficiency())
	fmt.Fprintf(&b, "telemetry: %d samples, %d points\n", r.Samples, r.Points)
	return b.String()
}

// WriteAligned renders one fixed-width table: every column as wide as its
// widest cell, cells joined by two spaces, and a dashed row under the
// header. The scenario and experiment tables share it.
func WriteAligned(b *strings.Builder, cols []string, rows [][]string) {
	widths := make([]int, len(cols))
	for i, c := range cols {
		widths[i] = len(c)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(cols)
	sep := make([]string, len(cols))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range rows {
		writeRow(row)
	}
}
