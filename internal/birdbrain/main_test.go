package birdbrain

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// watched names the code no goroutine may still be running once every test
// has returned: Scatter's hedged replica goroutines end with their query,
// and the counters and clusters the tests build must be closed.
var watched = []string{"unilog/internal/birdbrain.", "unilog/internal/cluster.", "unilog/internal/realtime."}

// TestMain fails the package if a goroutine is still inside the watched
// code after the tests (same shape as internal/dataflow's).
func TestMain(m *testing.M) {
	code := m.Run()
	if leaked := watchedGoroutines(time.Second); leaked != "" && code == 0 {
		fmt.Fprintf(os.Stderr, "goroutines still inside %v after the tests:\n%s\n", watched, leaked)
		code = 1
	}
	os.Exit(code)
}

// watchedGoroutines polls for up to wait and returns the stacks of the
// goroutines, other than the caller's, that are inside the watched code;
// "" once there are none.
func watchedGoroutines(wait time.Duration) string {
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(wait); ; time.Sleep(10 * time.Millisecond) {
		var leaked []string
		stacks := strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n")
		for _, g := range stacks[1:] { // stacks[0] is this goroutine
			for _, w := range watched {
				if strings.Contains(g, w) {
					leaked = append(leaked, g)
					break
				}
			}
		}
		if len(leaked) == 0 || time.Now().After(deadline) {
			return strings.Join(leaked, "\n\n")
		}
	}
}
