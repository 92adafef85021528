package scenario

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"autoloop/internal/bus"
	"autoloop/internal/core"
)

// loopEvent is one finding or honored execution as the bus carried it.
type loopEvent struct {
	t       time.Duration
	loop    string
	kind    string // finding or action kind
	execute bool   // false: finding
}

// recordEvents keeps every finding and honored execution published on b.
func recordEvents(b *bus.Bus) *[]loopEvent {
	var events []loopEvent
	b.Subscribe("loop.*", func(env bus.Envelope) {
		switch env.Topic[strings.LastIndexByte(env.Topic, '.')+1:] {
		case "finding":
			if f, ok := env.Payload.(*core.Finding); ok {
				events = append(events, loopEvent{t: env.Time, loop: env.Source, kind: f.Kind})
			}
		case "execute":
			if r, ok := env.Payload.(*core.ActionResult); ok && r.Honored {
				events = append(events, loopEvent{t: env.Time, loop: env.Source, kind: r.Action.Kind, execute: true})
			}
		}
	})
	return &events
}

// batchScore is the reference the scorer's online fold must equal: the
// whole run's events walked twice after the fact, once for the global
// rates and once per window for its first finding and first response.
// windows carries each window's ground truth (kind, domain, phantom,
// interval, detail); its folded fields are ignored.
func batchScore(bindings map[string]*binding, grace time.Duration, windows []InjectionOutcome, events []loopEvent) (Scores, []InjectionOutcome) {
	var sc Scores
	var scored []loopEvent
	for _, ev := range events {
		if b := bindings[ev.loop]; b != nil && b.domain != "" {
			scored = append(scored, ev)
		}
	}
	covered := func(domain string, t time.Duration) bool {
		for _, w := range windows {
			if !w.Phantom && w.Domain == domain && t >= w.At && t <= w.End+grace {
				return true
			}
		}
		return false
	}
	for _, ev := range scored {
		b := bindings[ev.loop]
		if ev.execute {
			if b.actions != nil && !b.actions[ev.kind] {
				continue
			}
			sc.Actions++
			if covered(b.domain, ev.t) {
				sc.AttributedActions++
			}
		} else {
			if b.findings != nil && !b.findings[ev.kind] {
				continue
			}
			sc.Findings++
			if !covered(b.domain, ev.t) {
				sc.FalseFindings++
			}
		}
	}
	var outs []InjectionOutcome
	var mttrSum time.Duration
	for _, w := range windows {
		out := InjectionOutcome{Kind: w.Kind, Domain: w.Domain, Phantom: w.Phantom, At: w.At, End: w.End, Detail: w.Detail}
		for _, ev := range scored {
			b := bindings[ev.loop]
			if b.domain != w.Domain || ev.t < w.At || ev.t > w.End+grace {
				continue
			}
			if ev.execute {
				if b.actions != nil && !b.actions[ev.kind] {
					continue
				}
				if out.Detected && !out.Responded {
					out.Responded, out.MTTR = true, ev.t-w.At
				}
			} else {
				if b.findings != nil && !b.findings[ev.kind] {
					continue
				}
				if !out.Detected {
					out.Detected, out.DetectLat, out.By = true, ev.t-w.At, ev.loop
				}
			}
		}
		if !w.Phantom {
			sc.Windows++
			if out.Detected {
				sc.Detected++
			}
			if out.Responded {
				sc.Responded++
				mttrSum += out.MTTR
			}
		}
		outs = append(outs, out)
	}
	if sc.Responded > 0 {
		sc.MeanMTTR = mttrSum / time.Duration(sc.Responded)
	}
	return sc, outs
}

// checkMatchesBatch holds an online fold's totals to the batch reference
// over the events its bus published.
func checkMatchesBatch(t *testing.T, name string, s *scorer, sc Scores, outs []InjectionOutcome, events []loopEvent) {
	t.Helper()
	wantSc, wantOuts := batchScore(s.bindings, s.grace, outs, events)
	if sc != wantSc {
		t.Errorf("%s: online scores %+v, batch %+v", name, sc, wantSc)
	}
	if !reflect.DeepEqual(outs, wantOuts) {
		t.Errorf("%s: online windows\n%+v\nbatch\n%+v", name, outs, wantOuts)
	}
}

// TestOnlineScoreEdges feeds the scorer a synthetic stream at the edges the
// fold must get right: an event at exactly end+grace (in) and one
// nanosecond later (out); a real and a phantom window of one domain that
// overlap; an execute inside a window before its first finding, which must
// not claim the MTTR; and events of an unbound loop and a loop with domain
// "none", which score nothing.
func TestOnlineScoreEdges(t *testing.T) {
	const grace = 5 * time.Minute
	b := bus.New()
	s := newScorer(b, grace)
	rec := recordEvents(b)
	s.bind("hw", &binding{domain: DomainHardware})
	s.bind("hw-picky", &binding{domain: DomainHardware, findings: toSet([]string{"hot"}), actions: toSet([]string{"cool"})})
	s.bind("disk", &binding{domain: DomainStorage})
	s.bind("off", &binding{})
	minute := func(m int) time.Duration { return time.Duration(m) * time.Minute }
	s.outcomes = []InjectionOutcome{
		{Kind: KindThermalCascade, Domain: DomainHardware, At: minute(10), End: minute(20), Detail: "real"},
		{Kind: KindSensorFlap, Domain: DomainHardware, Phantom: true, At: minute(15), End: minute(30), Detail: "phantom"},
		{Kind: KindDiskFailures, Domain: DomainStorage, At: minute(40), End: minute(50), Detail: "disk"},
	}
	windows := append([]InjectionOutcome(nil), s.outcomes...)

	finding := func(loop string, at time.Duration, kind string) {
		b.Publish(bus.Envelope{Topic: "loop." + loop + ".finding", Time: at, Source: loop, Payload: &core.Finding{Kind: kind}})
	}
	execute := func(loop string, at time.Duration, kind string, honored bool) {
		b.Publish(bus.Envelope{Topic: "loop." + loop + ".execute", Time: at, Source: loop,
			Payload: &core.ActionResult{Action: core.Action{Kind: kind}, Honored: honored}})
	}
	execute("hw", minute(11), "cool", true)           // before the first finding: no MTTR
	execute("hw", minute(11), "cool", false)          // not honored: ignored
	finding("hw-picky", minute(12), "noise")          // not a counted kind
	finding("hw", minute(16), "hot")                  // detects both hardware windows
	execute("hw-picky", minute(17), "warm", true)     // not a counted kind
	execute("hw", minute(18), "cool", true)           // responds to both
	finding("unbound", minute(19), "hot")             // no binding
	finding("off", minute(19), "hot")                 // domain none
	execute("off", minute(19), "cool", true)          // domain none
	finding("hw", minute(20)+grace, "hot")            // real window's last instant: covered
	finding("hw", minute(20)+grace+1, "hot")          // only the phantom covers it: false
	execute("hw", minute(30)+grace+1, "cool", true)   // outside every window
	execute("disk", minute(40)+grace, "reopen", true) // in the disk window, before its finding
	finding("disk", minute(50)+grace, "slow")         // the disk window's last instant
	finding("disk", minute(50)+grace+1, "slow")       // past it

	want := Scores{
		Windows: 2, Detected: 2, Responded: 1, MeanMTTR: minute(8),
		Findings: 5, FalseFindings: 2, Actions: 4, AttributedActions: 3,
	}
	if sc, _ := batchScore(s.bindings, grace, windows, *rec); sc != want {
		t.Errorf("batch reference scores %+v, want %+v", sc, want)
	}
	sc, outs := s.totals()
	checkMatchesBatch(t, "synthetic", s, sc, outs, *rec)
	if got := outs[0]; !got.Responded || got.MTTR != minute(8) || got.DetectLat != minute(6) || got.By != "hw" {
		t.Errorf("real window %+v: want detected at +6m by hw and responded at +8m", got)
	}
	if got := outs[2]; !got.Detected || got.Responded {
		t.Errorf("disk window %+v: want detected and not responded", got)
	}
}
