// Package autoloop is a reproduction of "Autonomy Loops for Monitoring,
// Operational Data Analytics, Feedback, and Response in HPC Operations"
// (IEEE CLUSTER 2023, arXiv:2401.16971): a framework for MAPE-K autonomy
// loops over holistic HPC telemetry, together with the complete simulated
// substrate needed to exercise them — cluster hardware, facility cooling, a
// SLURM-like batch scheduler, a Lustre-like parallel filesystem, and
// instrumented applications.
//
// The paper's five use cases (Scheduler walltime extension, Maintenance,
// I/O QoS, OST avoidance, Misconfiguration) are implemented end to end in
// internal/cases, the four Fig. 2 decentralization patterns in
// internal/core, and one experiment per figure/claim in
// internal/experiments (run them with cmd/modaloop, or via the benchmarks
// in bench_test.go).
//
// This facade re-exports the core MAPE-K vocabulary so that the README's
// snippets read from one import; the full surface lives in the internal
// packages, wired as shown in examples/.
package autoloop

import (
	"autoloop/internal/cases"
	"autoloop/internal/control"
	"autoloop/internal/core"
	"autoloop/internal/experiments"
	"autoloop/internal/fleet"
	"autoloop/internal/knowledge"
	"autoloop/internal/sim"
)

// Version identifies the reproduction release.
const Version = "1.0.0"

// Core MAPE-K vocabulary (see internal/core for documentation).
type (
	// Loop is one MAPE-K autonomy loop.
	Loop = core.Loop
	// Monitor collects observations from the managed system.
	Monitor = core.Monitor
	// Analyzer turns observations into symptoms.
	Analyzer = core.Analyzer
	// Planner turns symptoms into actions.
	Planner = core.Planner
	// Executor applies actions to the managed system.
	Executor = core.Executor
	// Knowledge is the shared K of MAPE-K.
	Knowledge = knowledge.Base
	// Engine is the deterministic discrete-event simulator.
	Engine = sim.Engine
	// Result is one experiment's reproduced table.
	Result = experiments.Result
)

// Control-plane vocabulary (see internal/control and internal/fleet): loops
// are declared as specs, spawned through a registry, and ticked by a fleet
// coordinator. A full deployment — facility, workload, fleet — is one
// internal/scenario document; see examples/.
type (
	// LoopSpec declares one loop deployment (case, config, mode,
	// priority, period) in JSON-decodable form.
	LoopSpec = control.LoopSpec
	// Registry maps case names to spawnable factories.
	Registry = control.Registry
	// Coordinator ticks a fleet of loops concurrently with cross-loop
	// conflict arbitration.
	Coordinator = fleet.Coordinator
)

// Operating modes (§IV).
const (
	Autonomous     = core.Autonomous
	HumanOnTheLoop = core.HumanOnTheLoop
	HumanInTheLoop = core.HumanInTheLoop
)

// Lifecycle states (created → running ⇄ paused, → draining → stopped).
const (
	StateCreated  = core.StateCreated
	StateRunning  = core.StateRunning
	StatePaused   = core.StatePaused
	StateDraining = core.StateDraining
	StateStopped  = core.StateStopped
)

// NewLoop constructs a named loop from the four MAPE phases.
func NewLoop(name string, m Monitor, a Analyzer, p Planner, e Executor) *Loop {
	return core.NewLoop(name, m, a, p, e)
}

// NewEngine returns a seeded simulation engine.
func NewEngine(seed int64) *Engine { return sim.NewEngine(seed) }

// NewKnowledge returns an empty knowledge base.
func NewKnowledge() *Knowledge { return knowledge.NewBase() }

// NewRegistry returns a control registry with all six use cases registered.
func NewRegistry() *Registry { return cases.NewRegistry() }

// NewCoordinator returns a fleet coordinator; workers <= 0 selects
// GOMAXPROCS.
func NewCoordinator(workers int) *Coordinator { return fleet.New(workers) }

// ParseSpecs decodes a JSON array of LoopSpecs (a spec file).
func ParseSpecs(data []byte) ([]LoopSpec, error) { return control.ParseSpecs(data) }

// RunExperiment executes one of the paper-reproduction experiments
// (e.g. "EXP-F3"); see ExperimentIDs for the index.
func RunExperiment(id string, seed int64, quick bool) (*Result, error) {
	return experiments.Run(id, experiments.Options{Seed: seed, Quick: quick})
}

// ExperimentIDs lists every reproduced figure/claim experiment.
func ExperimentIDs() []string { return experiments.IDs() }
