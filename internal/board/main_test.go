package board

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// TestMain fails the package when goroutines its tests started outlive
// them: a serve loop still reading a closed connection, a heartbeat or a
// parked waiter that a Close did not stop. Closing is asynchronous at the
// edges (a serve loop sees EOF a moment after the client's Close returns),
// so the count gets a short grace to fall back before the stacks are dumped.
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
