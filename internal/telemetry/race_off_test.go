//go:build !race

package telemetry_test

const raceEnabled = false
