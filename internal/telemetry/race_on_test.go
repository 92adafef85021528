//go:build race

package telemetry_test

// raceEnabled skips the steady-state allocation gates under the race
// detector, whose instrumentation itself allocates.
const raceEnabled = true
