package ioqoscase

import (
	"fmt"
	"time"

	"autoloop/internal/control"
)

// CaseName is the spec vocabulary for this loop under the control plane.
const CaseName = "ioqos"

// FleetPriority is the case's recommended arbitration priority under a
// fleet coordinator: QoS enforcement outranks plain workload optimization
// but yields to maintenance and facility loops.
const FleetPriority = 8

// FactoryConfig is the JSON-facing config: the case Config plus the
// parent-loop cadence of the hierarchy (the parent reallocates once per
// ParentEvery child enforcement ticks).
type FactoryConfig struct {
	Config
	ParentEvery int
}

// Factory registers the hierarchical I/O QoS case with the control plane.
// Unlike the single-loop cases it spawns one child loop per tenant plus the
// reallocating parent; under a fleet coordinator the parent registers with
// an EveryMul of ParentEvery (see builtLoops).
func Factory() control.CaseFactory {
	return control.CaseFactory{
		Name:     CaseName,
		Doc:      "hierarchical I/O QoS: per-tenant bandwidth enforcement children under a reallocating parent watching tail latencies",
		Requires: []control.Capability{control.CapQuerier, control.CapPFS, control.CapKnowledge},
		Inputs:   []string{"pfs.tenant.lat_ms", "pfs.tenant.mbps"},
		Defaults: func() interface{} {
			cfg := FactoryConfig{
				Config: DefaultConfig([]Tenant{
					{Name: "deadline", Priority: 3, TargetLatMS: 500},
					{Name: "batch", Priority: 1},
				}, 2000),
				ParentEvery: 3,
			}
			return &cfg
		},
		Priority: FleetPriority,
		Period:   control.Duration(10 * time.Second),
		Build: func(env *control.Env, cfg interface{}) ([]control.BuiltLoop, error) {
			fc := cfg.(*FactoryConfig)
			if len(fc.Tenants) == 0 {
				return nil, fmt.Errorf("ioqoscase: config needs at least one tenant")
			}
			return newController(fc.Config, env.Querier, env.FS, env.Knowledge).builtLoops(fc.ParentEvery), nil
		},
	}
}
