//go:build !race

package chunk

const raceEnabled = false
