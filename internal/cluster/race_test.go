//go:build race

package cluster

// raceEnabled reports a -race build, under which sync.Pool drops a share of
// what is put back on purpose, so an allocation bound does not hold.
const raceEnabled = true
