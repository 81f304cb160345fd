// Package integration spawns the real binaries — one tapboard, five
// relay tapnodes, one client tapnode — as separate OS processes on
// localhost and asserts that an onion-sealed stream round-trips through
// the overlay. This is the end-to-end pin for the whole real-process
// deployment mode: board registration, peer-table distribution, anchor
// deployment with acks, forward-onion relaying, exit echo, and
// reply-onion return, all over TCP between processes.
package integration

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// buildBinaries compiles tapboard and tapnode into dir.
func buildBinaries(t *testing.T, dir string) (boardBin, nodeBin string) {
	t.Helper()
	boardBin = filepath.Join(dir, "tapboard")
	nodeBin = filepath.Join(dir, "tapnode")
	for _, b := range []struct{ out, pkg string }{
		{boardBin, "tap/cmd/tapboard"},
		{nodeBin, "tap/cmd/tapnode"},
	} {
		cmd := exec.Command("go", "build", "-o", b.out, b.pkg)
		cmd.Dir = repoRoot(t)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", b.pkg, err, out)
		}
	}
	return boardBin, nodeBin
}

// repoRoot walks up from the working directory to the go.mod.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above working directory")
		}
		dir = parent
	}
}

// proc is one spawned child process with captured output.
type proc struct {
	cmd   *exec.Cmd
	out   *bufio.Scanner
	buf   *bytes.Buffer
	stdin io.WriteCloser // held open; closing it releases a -linger child
	done  chan error     // receives the single Wait result
}

// closeStdin signals a lingering child to exit by closing its stdin.
func (p *proc) closeStdin(t *testing.T) {
	t.Helper()
	if err := p.stdin.Close(); err != nil {
		t.Fatalf("closing stdin: %v", err)
	}
}

// wait blocks until the process exits and returns its Wait error.
func (p *proc) wait(timeout time.Duration) error {
	select {
	case err := <-p.done:
		return err
	case <-time.After(timeout):
		return fmt.Errorf("process did not exit within %v", timeout)
	}
}

// startProc launches a binary, captures its output, and registers
// cleanup. Exactly one goroutine calls Wait; everyone else reads done.
func startProc(t *testing.T, name string, args ...string) *proc {
	t.Helper()
	cmd := exec.Command(name, args...)
	pr, pw := io.Pipe()
	var buf bytes.Buffer
	cmd.Stdout = io.MultiWriter(pw, &buf)
	cmd.Stderr = io.MultiWriter(pw, &buf)
	stdin, err := cmd.StdinPipe()
	if err != nil {
		t.Fatalf("stdin pipe for %s: %v", name, err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting %s: %v", name, err)
	}
	done := make(chan error, 2)
	go func() {
		err := cmd.Wait()
		pw.Close()
		done <- err
		done <- err
	}()
	t.Cleanup(func() {
		cmd.Process.Kill()
		<-done
	})
	return &proc{cmd: cmd, out: bufio.NewScanner(pr), buf: &buf, stdin: stdin, done: done}
}

// expectLine reads lines until one contains want, or times out.
func expectLine(t *testing.T, sc *bufio.Scanner, what, want string, timeout time.Duration) string {
	t.Helper()
	found := make(chan string, 1)
	go func() {
		for sc.Scan() {
			if strings.Contains(sc.Text(), want) {
				found <- sc.Text()
				return
			}
		}
		close(found)
	}()
	select {
	case line, ok := <-found:
		if !ok {
			t.Fatalf("%s: output ended before %q", what, want)
		}
		return line
	case <-time.After(timeout):
		t.Fatalf("%s: no %q within %v", what, want, timeout)
		return ""
	}
}

// TestFiveProcessRoundTrip is the ISSUE's acceptance scenario: a board,
// five relay nodes, and a client — seven OS processes — complete an
// onion-sealed stream round-trip (3 forward hops, 2 reply hops, one of
// the relays doubling as destination).
func TestFiveProcessRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test skipped in -short mode")
	}
	dir := t.TempDir()
	boardBin, nodeBin := buildBinaries(t, dir)

	bp := startProc(t, boardBin, "-listen", "127.0.0.1:0")
	line := expectLine(t, bp.out, "tapboard", "tapboard listening on", 10*time.Second)
	boardAddr := strings.TrimSpace(strings.TrimPrefix(line, "tapboard listening on "))

	const relays = 5
	for i := 0; i < relays; i++ {
		rp := startProc(t, nodeBin, "-board", boardAddr, "-refresh", "200ms")
		expectLine(t, rp.out, fmt.Sprintf("relay %d", i), "tapnode addr=", 10*time.Second)
	}

	// The client waits for all 6 members (5 relays + itself), then
	// streams through a 3-hop forward and 2-hop reply tunnel, with the
	// highest-addressed relay doubling as the destination. 48 chunks are
	// three of the stream's 16-chunk windows: the window fills and slides
	// across real processes.
	cp := startProc(t, nodeBin,
		"-board", boardAddr, "-client", "-quorum", fmt.Sprint(relays+1),
		"-fwhops", "3", "-rphops", "2", "-bytes", "12288", "-chunk", "256")
	expectLine(t, cp.out, "client", "ROUNDTRIP OK", 60*time.Second)

	if err := cp.wait(30 * time.Second); err != nil {
		t.Fatalf("client exited with error: %v\n%s", err, cp.buf.String())
	}
}
