// Package leakcheck is the goroutine-leak guard of the packages that start
// goroutines around sockets: their TestMain is one call to Main.
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// Main runs the package's tests and exits with their status, or with 1 and
// a dump of every stack when goroutines the tests started outlive them: a
// serve or initiator loop that never returned, a parked timer chain still
// re-arming, a Close that left a reader or writer behind. Closing is
// asynchronous at the edges (a reader sees EOF a moment after the other
// side's Close returns), so the count gets a short grace to fall back
// before the stacks are dumped.
func Main(m *testing.M) {
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
