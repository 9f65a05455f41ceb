// Command scenariogrid runs a scenario experiment grid: every
// (scenario × config) cell in the grid file executes a declarative
// workload spec (internal/scenario) through the full pipeline and writes
// one machine-readable JSON per cell. It exits nonzero if any cell's
// spec-declared invariants fail; that is the only thing it judges —
// timing in the cells is information, and performance is measured by the
// repository's benchmark (bench/README.md).
//
// Usage:
//
//	scenariogrid [-out DIR] ci/scenarios/smoke.json
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	out := flag.String("out", "", "write the CELL_*.json files here instead of the grid's output_dir")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: scenariogrid [-out DIR] GRID.json")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	if err := runGrid(flag.Arg(0), *out); err != nil {
		fmt.Fprintln(os.Stderr, "scenariogrid:", err)
		os.Exit(1)
	}
}
