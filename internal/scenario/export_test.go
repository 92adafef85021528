package scenario

import "testing"

// RecordLoopEvents keeps every finding and honored execution published on
// a bus, for CheckOnlineMatchesBatch.
var RecordLoopEvents = recordEvents

// CheckOnlineMatchesBatch holds a run's report to the two-pass reference
// fold over the events the run published.
func CheckOnlineMatchesBatch(t *testing.T, name string, rt *Runtime, rep *Report, events []loopEvent) {
	t.Helper()
	checkMatchesBatch(t, name, rt.scorer, rep.Scores, rep.Injections, events)
}
