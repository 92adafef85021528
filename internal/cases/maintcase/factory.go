package maintcase

import (
	"time"

	"autoloop/internal/control"
)

// CaseName is the spec vocabulary for this loop under the control plane.
const CaseName = "maintenance"

// FleetPriority is the case's recommended arbitration priority under a
// fleet coordinator: maintenance preservation outranks workload-side
// optimizations (a job saved beats a job extended) but yields to
// facility-domain safety loops.
const FleetPriority = 15

// Factory registers the maintenance-preservation loop with the control
// plane.
func Factory() control.CaseFactory {
	return control.CaseFactory{
		Name:     CaseName,
		Doc:      "maintenance preservation: checkpoint-requeue jobs that cannot finish before the next announced maintenance window",
		Requires: []control.Capability{control.CapQuerier, control.CapScheduler, control.CapApps},
		Defaults: func() interface{} { cfg := DefaultConfig(); return &cfg },
		Priority: FleetPriority,
		Period:   control.Duration(5 * time.Minute),
		Build: func(env *control.Env, cfg interface{}) ([]control.BuiltLoop, error) {
			return []control.BuiltLoop{{Loop: newController(*cfg.(*Config), env.Querier, env.Scheduler, env.Apps).loop()}}, nil
		},
	}
}
