package scenario

import (
	"testing"

	"autoloop/internal/control"
	"autoloop/internal/knowledge"
	"autoloop/internal/sim"
	"autoloop/internal/tsdb"
)

// RecordLoopEvents keeps every finding and honored execution published on
// a bus, for CheckOnlineMatchesBatch.
var RecordLoopEvents = recordEvents

// CheckOnlineMatchesBatch holds a run's report to the two-pass reference
// fold over the events the run published.
func CheckOnlineMatchesBatch(t *testing.T, name string, rt *Runtime, rep *Report, events []loopEvent) {
	t.Helper()
	checkMatchesBatch(t, name, rt.scorer, rep.Scores, rep.Injections, events)
}

// AssembleOn is Assemble over an engine and a store the test owns, with a
// fresh knowledge base: the layout Durable.Recover assembles a resumed
// runtime with.
func AssembleOn(engine *sim.Engine, db *tsdb.DB, spec *Spec, reg *control.Registry) (*Runtime, error) {
	return assemble(engine, db, knowledge.NewBase(), spec, reg)
}
