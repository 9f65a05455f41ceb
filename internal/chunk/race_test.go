//go:build race

package chunk

// raceEnabled reports a -race build, whose sync.Pool drops objects at
// random, so a pooled vector is not certain to come back.
const raceEnabled = true
