package ostcase

import (
	"time"

	"autoloop/internal/control"
)

// CaseName is the spec vocabulary for this loop under the control plane.
const CaseName = "ost"

// Factory registers the OST-avoidance loop with the control plane.
func Factory() control.CaseFactory {
	return control.CaseFactory{
		Name:     CaseName,
		Doc:      "storage back-end avoidance: MAD outlier test on per-OST write latency, reopen affected applications' files elsewhere",
		Requires: []control.Capability{control.CapQuerier, control.CapScheduler, control.CapApps},
		Inputs:   []string{"pfs.ost.lat_ms"},
		Defaults: func() interface{} { cfg := DefaultConfig(); return &cfg },
		Priority: FleetPriority,
		Period:   control.Duration(time.Minute),
		Build: func(env *control.Env, cfg interface{}) ([]control.BuiltLoop, error) {
			return []control.BuiltLoop{{Loop: newController(*cfg.(*Config), env.Querier, env.Scheduler, env.Apps).loop()}}, nil
		},
	}
}
