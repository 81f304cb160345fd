package procnode

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// TestMain fails the package when goroutines its tests started outlive
// them: an initiator loop that never returned, a parked Schedule chain
// still re-arming, a transport whose Close left a reader or writer behind.
// Closing is asynchronous at the edges (a peer's reader sees EOF a moment
// after the other side's Close returns), so the count gets a short grace
// to fall back before the stacks are dumped.
func TestMain(m *testing.M) {
	before := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 {
		for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
			time.Sleep(10 * time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			buf := make([]byte, 1<<20)
			fmt.Fprintf(os.Stderr, "goroutine leak: %d alive after the tests, %d before\n%s\n", n, before, buf[:runtime.Stack(buf, true)])
			code = 1
		}
	}
	os.Exit(code)
}
