//go:build race

package birdbrain

// raceEnabled reports a -race build, which counts more allocations per
// scatter refresh than a plain build does (38 against a bound of 32), so an
// allocation bound measured without it does not hold.
const raceEnabled = true
