package chunk

// What the external tests (package chunk_test, pool_test.go) share with the
// in-package ones. They generate their corpus with internal/workload, which
// reaches this package through internal/warehouse, so they cannot live in it.
const (
	RaceEnabled = raceEnabled
	TestDir     = testDir
)

var (
	SameRows   = sameRows
	WriteChunk = writeChunk
)
