// Package leakcheck is the leak guard of the packages that start goroutines
// around sockets — goroutines and listening ports both: their TestMain is
// one call to Main.
package leakcheck

import (
	"encoding/hex"
	"fmt"
	"net"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// Main runs the package's tests and exits with their status, or with 1 when
// something the tests started outlives them. Goroutines first, with a dump
// of every stack: a serve or initiator loop that never returned, a parked
// timer chain still re-arming, a Close that left a reader or writer behind.
// Then TCP sockets this process opened during the run and still holds in
// LISTEN, each named by its address: a listener nothing closed. Closing is
// asynchronous at the edges (a reader sees EOF a moment after the other
// side's Close returns), so each check gets a short grace before it fails.
func Main(m *testing.M) {
	before, held := runtime.NumGoroutine(), listening()
	code := m.Run()
	if code == 0 {
		if !settle(func() bool { return runtime.NumGoroutine() <= before }) {
			buf := make([]byte, 1<<20)
			fmt.Fprintf(os.Stderr, "goroutine leak: %d alive after the tests, %d before\n%s\n", runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
			code = 1
		}
		var left []string
		if !settle(func() bool { left = openedSince(held); return len(left) == 0 }) {
			fmt.Fprintf(os.Stderr, "listener leak: still in LISTEN after the tests: %s\n", strings.Join(left, ", "))
			code = 1
		}
	}
	os.Exit(code)
}

// settle polls ok until it holds or the grace runs out, and reports which.
func settle(ok func() bool) bool {
	for deadline := time.Now().Add(2 * time.Second); !ok(); time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}

// openedSince returns the addresses, sorted, of the listening sockets this
// process holds now and did not hold in the earlier snapshot.
func openedSince(held map[string]string) []string {
	var out []string
	for inode, addr := range listening() {
		if _, was := held[inode]; !was {
			out = append(out, addr)
		}
	}
	sort.Strings(out)
	return out
}

// listening maps socket inode to local address for every TCP socket in
// LISTEN that one of this process's descriptors refers to: the kernel's
// socket tables list the whole network namespace, /proc/self/fd says which
// entries are ours. Where /proc is absent the map is empty and the check a
// no-op.
func listening() map[string]string {
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return nil
	}
	ours := make(map[string]bool)
	for _, fd := range fds {
		link, err := os.Readlink("/proc/self/fd/" + fd.Name())
		if err == nil && strings.HasPrefix(link, "socket:[") {
			ours[strings.TrimSuffix(strings.TrimPrefix(link, "socket:["), "]")] = true
		}
	}
	out := make(map[string]string)
	for _, table := range []string{"/proc/self/net/tcp", "/proc/self/net/tcp6"} {
		data, err := os.ReadFile(table)
		if err != nil {
			continue
		}
		for _, line := range strings.Split(string(data), "\n") {
			// sl local_address rem_address st ... uid timeout inode ...
			const local, state, inode, tcpListen = 1, 3, 9, "0A"
			f := strings.Fields(line)
			if len(f) > inode && f[state] == tcpListen && ours[f[inode]] {
				out[f[inode]] = decodeAddr(f[local])
			}
		}
	}
	return out
}

// decodeAddr renders a socket-table address — hex IP in 4-byte
// little-endian groups, ':', hex port — as host:port; text it cannot parse
// is returned as it is.
func decodeAddr(s string) string {
	host, port, ok := strings.Cut(s, ":")
	ip, err := hex.DecodeString(host)
	p, perr := strconv.ParseUint(port, 16, 16)
	if !ok || err != nil || perr != nil || len(ip)%4 != 0 {
		return s
	}
	for i := 0; i < len(ip); i += 4 {
		ip[i], ip[i+1], ip[i+2], ip[i+3] = ip[i+3], ip[i+2], ip[i+1], ip[i]
	}
	return net.JoinHostPort(net.IP(ip).String(), strconv.FormatUint(p, 10))
}
