//go:build race

package misconfcase

// raceEnabled skips the steady-state allocation gate under the race
// detector, whose instrumentation itself allocates.
const raceEnabled = true
