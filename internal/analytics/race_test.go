//go:build race

package analytics

// raceEnabled reports a -race build, whose instrumentation allocates on its
// own, so an allocation bound does not hold.
const raceEnabled = true
