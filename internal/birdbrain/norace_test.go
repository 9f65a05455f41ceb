//go:build !race

package birdbrain

const raceEnabled = false
