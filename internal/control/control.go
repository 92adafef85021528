// Package control is the runtime control plane for autonomy loops: the
// deploy-and-operate surface the paper's question (ii) asks for, where loops
// are managed, not just observed.
//
// It has four layers:
//
//   - A declarative spec layer: every use case registers a CaseFactory
//     (name, config defaults, required capabilities) in a Registry, and
//     loops are instantiated from JSON-decodable LoopSpecs instead of
//     per-case constructor wiring.
//   - A lifecycle layer: spawned loops carry the core lifecycle state
//     machine (created → running → paused → draining → stopped) and can be
//     added, paused, resumed, drained, and reconfigured mid-run.
//   - A versioned wire API: control.v1 request/reply envelopes over the
//     existing bus/TCP bridge (list, get, cases, spawn, pause, resume,
//     drain, remove, set-mode, set-guard, pending), served by a Service.
//   - An operator approval surface: human-in-the-loop actions land in a
//     pending-approval queue published on control.v1.pending and are
//     settled by control.v1.approve/deny envelopes. Without an operator,
//     only the spec's human.contingency_after settles one (it executes
//     once that long has passed); an action with no contingency stays
//     pending. The human block's availability, median_latency and
//     latency_cv are accepted for control.v1 compatibility and are not
//     used.
//
// Compatibility: the control.v1 wire surface is additive-only — fields and
// ops may be added, never renamed, removed, or re-typed. Breaking changes
// require a control.v2 topic family (see CONTRIBUTING.md).
package control
