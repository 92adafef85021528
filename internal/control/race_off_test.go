//go:build !race

package control_test

const raceEnabled = false
