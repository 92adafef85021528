package control

import (
	"time"

	"autoloop/internal/telemetry"
)

// roundView is the telemetry.Querier a Service hands the loops it spawns. The
// metrics their factories declare as Inputs are resolved once per control
// round — one store walk per distinct metric, whatever the number of loops
// reading it — and a LatestInto, or a LatestValue through a handle, of a
// declared metric with an empty matcher answers from that resolution. Every
// other read (any matcher, any QueryVisit window, any undeclared metric)
// goes to the store unchanged; a handle read there uses the handle's memo.
//
// Freshness: Service.Tick resolves the view under the service mutex, after
// the approval queue settles and before the plan fan-out, and ends it once
// the round is over; a resolution is never consulted across rounds, and
// outside a round every read goes to the store. Within the round it equals
// what each loop would have read directly, because the pipeline appends and
// then ticks on one goroutine and plan phases only read: nothing appends
// between the resolution and the round's last plan. The view is written
// serially, before the plan workers start, and only read by them.
type roundView struct {
	store telemetry.Querier
	// latest holds each declared metric's newest points for the current
	// round, in label-key order; the buffers are reused across rounds.
	latest map[string][]telemetry.Point
	live   bool
}

func newRoundView(store telemetry.Querier) *roundView {
	return &roundView{store: store, latest: make(map[string][]telemetry.Point)}
}

// declare registers metrics for resolution from the next round on.
// Declarations only grow: a metric no loop reads any more costs one store
// walk per round.
func (v *roundView) declare(metrics []string) {
	for _, m := range metrics {
		if _, ok := v.latest[m]; !ok {
			v.latest[m] = nil
		}
	}
}

// resolve reads every declared metric from the store and opens the round.
func (v *roundView) resolve() {
	for m, buf := range v.latest {
		v.latest[m] = v.store.LatestInto(buf[:0], m, nil)
	}
	v.live = true
}

// end closes the round: reads go to the store until the next resolve.
func (v *roundView) end() { v.live = false }

// resolved returns the round's resolution of name, when the read it serves
// is a declared metric's newest points with an empty matcher.
func (v *roundView) resolved(name string, matcher telemetry.Labels) ([]telemetry.Point, bool) {
	if !v.live || len(matcher) > 0 {
		return nil, false
	}
	pts, ok := v.latest[name]
	return pts, ok
}

// LatestValue implements telemetry.Querier.
func (v *roundView) LatestValue(h *telemetry.Handle) (float64, bool) {
	if pts, ok := v.resolved(h.Name, h.Matcher); ok {
		if len(pts) == 0 {
			return 0, false
		}
		return pts[len(pts)-1].Value, true
	}
	return v.store.LatestValue(h)
}

// LatestInto implements telemetry.Querier.
func (v *roundView) LatestInto(buf []telemetry.Point, name string, matcher telemetry.Labels) []telemetry.Point {
	if pts, ok := v.resolved(name, matcher); ok {
		return append(buf, pts...)
	}
	return v.store.LatestInto(buf, name, matcher)
}

// QueryVisit implements telemetry.Querier; windows always read the store.
func (v *roundView) QueryVisit(name string, matcher telemetry.Labels, from, to time.Duration, visit telemetry.SeriesVisitor) {
	v.store.QueryVisit(name, matcher, from, to, visit)
}
