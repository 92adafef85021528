//go:build !race

package bus

const raceEnabled = false
