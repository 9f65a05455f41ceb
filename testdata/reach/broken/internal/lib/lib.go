// Package lib is the reachability checker's fixture for a root that no
// longer type-checks against it.
package lib

// Count returns a count.
func Count() int { return 1 }
