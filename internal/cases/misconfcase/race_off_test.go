//go:build !race

package misconfcase

const raceEnabled = false
