//go:build race

package main

// raceEnabled makes buildModad build the daemon under the race detector
// too, so the multi-process tests check the daemon's own goroutines.
const raceEnabled = true
