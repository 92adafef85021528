package scenario

import (
	"fmt"
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

// loopEvent is one observed lifecycle event relevant to scoring.
type loopEvent struct {
	t       time.Duration
	loop    string
	kind    string // finding or action kind
	execute bool   // false: finding
}

// scorer records the fleet's findings and honored executions off the bus.
// The bus dispatch under the simulator is effectively single-threaded (the
// fleet coordinator replays buffered loop events serially on the tick
// goroutine), so no locking is needed.
type scorer struct {
	bindings map[string]*binding
	events   []loopEvent
}

func newScorer(b *bus.Bus) *scorer {
	s := &scorer{bindings: make(map[string]*binding)}
	b.Subscribe("loop.*", func(env bus.Envelope) {
		var ev loopEvent
		switch env.Topic[strings.LastIndexByte(env.Topic, '.')+1:] {
		case "finding":
			f, ok := env.Payload.(core.Finding)
			if !ok {
				return
			}
			ev = loopEvent{t: env.Time, loop: env.Source, kind: f.Kind}
		case "execute":
			r, ok := env.Payload.(core.ActionResult)
			if !ok || !r.Honored {
				return
			}
			ev = loopEvent{t: env.Time, loop: env.Source, kind: r.Action.Kind, execute: true}
		default:
			return
		}
		// Only scored loops are recorded: an unscored deployment (a daemon's
		// fleet, loops spawned later over the wire) keeps no event history.
		if bound := s.bindings[ev.loop]; bound != nil && bound.domain != "" {
			s.events = append(s.events, ev)
		}
	})
	return s
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

// score folds the recorded events over the ground-truth windows.
func (rt *Runtime) score() *Report {
	grace := rt.spec.Score.Grace.D()
	if grace <= 0 {
		grace = 10 * time.Minute
	}
	s := rt.scorer

	// covered reports whether a real window of the event's domain covers t.
	covered := func(domain string, t time.Duration) bool {
		for _, w := range rt.windows {
			if !w.phantom && w.domain == domain && t >= w.at && t <= w.end+grace {
				return true
			}
		}
		return false
	}

	rep := &Report{
		Name:    rt.spec.Name,
		Seed:    rt.spec.Seed,
		Horizon: rt.horizon,
		Nodes:   rt.spec.Facility.Nodes,
	}
	samples, points, _ := rt.Pipe.Stats()
	rep.Samples, rep.Points = samples, points

	// Global rates over scored events.
	for _, ev := range s.events {
		b := s.bindings[ev.loop] // recorded events are all bound
		if ev.execute {
			if b.actions != nil && !b.actions[ev.kind] {
				continue
			}
			rep.Scores.Actions++
			if covered(b.domain, ev.t) {
				rep.Scores.AttributedActions++
			}
		} else {
			if b.findings != nil && !b.findings[ev.kind] {
				continue
			}
			rep.Scores.Findings++
			if !covered(b.domain, ev.t) {
				rep.Scores.FalseFindings++
			}
		}
	}

	// Per-injection outcomes: first matching finding and execution.
	var mttrSum time.Duration
	for _, w := range rt.windows {
		out := InjectionOutcome{
			Kind: w.kind, Domain: w.domain, Phantom: w.phantom,
			At: w.at, End: w.end, Detail: w.detail,
		}
		for _, ev := range s.events {
			b := s.bindings[ev.loop]
			if b.domain != w.domain {
				continue
			}
			if ev.t < w.at || ev.t > w.end+grace {
				continue
			}
			if ev.execute {
				if b.actions != nil && !b.actions[ev.kind] {
					continue
				}
				// A response only counts once the fault was detected: events
				// arrive in time order, so routine in-window actions fired
				// before the first matching finding never claim the MTTR.
				if out.Detected && !out.Responded {
					out.Responded = true
					out.MTTR = ev.t - w.at
				}
			} else {
				if b.findings != nil && !b.findings[ev.kind] {
					continue
				}
				if !out.Detected {
					out.Detected = true
					out.DetectLat = ev.t - w.at
					out.By = ev.loop
				}
			}
		}
		if !w.phantom {
			rep.Scores.Windows++
			if out.Detected {
				rep.Scores.Detected++
			}
			if out.Responded {
				rep.Scores.Responded++
				mttrSum += out.MTTR
			}
		}
		rep.Injections = append(rep.Injections, out)
	}
	if rep.Scores.Responded > 0 {
		rep.Scores.MeanMTTR = mttrSum / time.Duration(rep.Scores.Responded)
	}
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
	writeAligned(&b, cols, rows)
	s := r.Scores
	fmt.Fprintf(&b, "detected %d/%d, responded %d/%d, mean MTTR %v\n",
		s.Detected, s.Windows, s.Responded, s.Windows, s.MeanMTTR)
	fmt.Fprintf(&b, "findings %d (false %d, fp-rate %.3f); actions %d (attributed %d, efficiency %.3f)\n",
		s.Findings, s.FalseFindings, s.FPRate(), s.Actions, s.AttributedActions, s.Efficiency())
	fmt.Fprintf(&b, "telemetry: %d samples, %d points\n", r.Samples, r.Points)
	return b.String()
}

// writeAligned renders one fixed-width table.
func writeAligned(b *strings.Builder, cols []string, rows [][]string) {
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
