//go:build race

package bus

// raceEnabled skips the allocation gates under the race detector, whose
// instrumentation itself allocates.
const raceEnabled = true
