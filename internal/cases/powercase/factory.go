package powercase

import (
	"time"

	"autoloop/internal/control"
)

// CaseName is the spec vocabulary for this loop under the control plane.
const CaseName = "power"

// Factory registers the cooling-energy loop with the control plane:
// spawnable from a LoopSpec, requiring the telemetry query surface and the
// facility plant actuator.
func Factory() control.CaseFactory {
	return control.CaseFactory{
		Name:     CaseName,
		Doc:      "cooling-energy optimization: raise the supply-air setpoint on fleet-wide thermal headroom, back it down on pressure",
		Requires: []control.Capability{control.CapQuerier, control.CapPlant},
		Inputs:   []string{"node.temp.celsius"},
		Defaults: func() interface{} { cfg := DefaultConfig(); return &cfg },
		Priority: FleetPriority,
		Period:   control.Duration(time.Minute),
		Build: func(env *control.Env, cfg interface{}) ([]control.BuiltLoop, error) {
			return []control.BuiltLoop{{Loop: newController(*cfg.(*Config), env.Querier, env.Plant).loop()}}, nil
		},
	}
}
