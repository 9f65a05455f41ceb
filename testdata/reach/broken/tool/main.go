// Command tool is a nested module's main built against the fixture's
// internal package, as bench/ is against the repository's.
package main

import "fixture/internal/lib"

func main() {
	var s string = lib.Count()
	println(s)
}
