package misconfcase

import (
	"time"

	"autoloop/internal/control"
)

// CaseName is the spec vocabulary for this loop under the control plane.
const CaseName = "misconfig"

// FleetPriority is the case's recommended arbitration priority under a
// fleet coordinator: diagnosis-and-notify sits below every actuating loop.
const FleetPriority = 5

// Factory registers the misconfiguration-detection loop with the control
// plane. The cluster capability is optional: without node telemetry the
// underutilization detector is disabled, matching the constructor contract.
func Factory() control.CaseFactory {
	return control.CaseFactory{
		Name:     CaseName,
		Doc:      "misconfiguration detection: thread oversubscription, wrong-library I/O stalls, and underutilized allocations, with optional on-the-fly fixes",
		Requires: []control.Capability{control.CapQuerier, control.CapScheduler, control.CapApps},
		Defaults: func() interface{} { cfg := DefaultConfig(); return &cfg },
		Priority: FleetPriority,
		Period:   control.Duration(time.Minute),
		Build: func(env *control.Env, cfg interface{}) ([]control.BuiltLoop, error) {
			c := newController(*cfg.(*Config), env.Querier, env.Scheduler, env.Apps, env.Cluster)
			return []control.BuiltLoop{{Loop: c.loop()}}, nil
		},
	}
}
