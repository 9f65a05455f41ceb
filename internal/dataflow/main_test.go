package dataflow

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestMain fails the package if any goroutine is still running engine
// code once every test has returned: the scan pool is the only thing the
// engine starts, and Close, EOF and the first error must each join it.
func TestMain(m *testing.M) {
	code := m.Run()
	if leaked := engineGoroutines(time.Second); leaked != "" && code == 0 {
		fmt.Fprintf(os.Stderr, "goroutines still inside unilog/internal/dataflow after the tests:\n%s\n", leaked)
		code = 1
	}
	os.Exit(code)
}

// engineGoroutines polls for up to wait and returns the stacks of the
// goroutines, other than the caller's, that are inside this package; ""
// once there are none.
func engineGoroutines(wait time.Duration) string {
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(wait); ; time.Sleep(10 * time.Millisecond) {
		var leaked []string
		stacks := strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n")
		for _, g := range stacks[1:] { // stacks[0] is this goroutine
			if strings.Contains(g, "unilog/internal/dataflow.") {
				leaked = append(leaked, g)
			}
		}
		if len(leaked) == 0 || time.Now().After(deadline) {
			return strings.Join(leaked, "\n\n")
		}
	}
}
