package leakcheck

import (
	"net"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
)

func TestMain(m *testing.M) { Main(m) }

// childEnv marks the re-executed test binary of TestMainFailsOnListenerLeftOpen.
const childEnv = "LEAKCHECK_LEAVE_LISTENER"

// leftOpen keeps the planted listener reachable: a collected one is closed
// by its finalizer.
var leftOpen net.Listener

// TestLeaveListenerOpen is the planted leak: it only runs in the child.
func TestLeaveListenerOpen(t *testing.T) {
	if os.Getenv(childEnv) == "" {
		t.Skip("runs only as the child of TestMainFailsOnListenerLeftOpen")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	leftOpen = ln
	t.Logf("leaving %s", ln.Addr())
}

// TestMainFailsOnListenerLeftOpen runs this package's own Main over a test
// that passes but leaves a listener bound: the run must fail and name the
// address.
func TestMainFailsOnListenerLeftOpen(t *testing.T) {
	if _, err := os.Stat("/proc/self/net/tcp"); err != nil {
		t.Skip("no /proc socket tables here: the port check is a no-op")
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestLeaveListenerOpen$", "-test.v")
	cmd.Env = append(os.Environ(), childEnv+"=1")
	out, err := cmd.CombinedOutput()
	if exit, ok := err.(*exec.ExitError); !ok || exit.ExitCode() != 1 {
		t.Fatalf("child exited with %v, want status 1\n%s", err, out)
	}
	left := regexp.MustCompile(`leaving (\S+)`).FindSubmatch(out)
	if left == nil || !strings.Contains(string(out), "--- PASS: TestLeaveListenerOpen") {
		t.Fatalf("child's test did not pass and leave a listener:\n%s", out)
	}
	if want := "listener leak: still in LISTEN after the tests: " + string(left[1]); !strings.Contains(string(out), want) {
		t.Fatalf("child's output lacks %q:\n%s", want, out)
	}
}

func TestDecodeAddr(t *testing.T) {
	for in, want := range map[string]string{
		"0100007F:BC8F":                         "127.0.0.1:48271",
		"00000000000000000000000001000000:1F90": "[::1]:8080",
		"garbage":                               "garbage",
	} {
		if got := decodeAddr(in); got != want {
			t.Errorf("decodeAddr(%q) = %q, want %q", in, got, want)
		}
	}
}
