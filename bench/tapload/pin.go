package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// pinToOneCPU confines the whole process to a single CPU: GOMAXPROCS 1
// and every OS thread's affinity narrowed to the first CPU the process
// may run on. Seven nodes in one process on a two-core shared VM
// otherwise measure how cheaply an idle virtual CPU can be woken, which
// changes from second to second and in both directions; on one CPU every
// hand-off is a local context switch, loopback delivery happens in the
// sender's own softirq, and what is left is the CPU cost of the path,
// which interference can only lengthen. Threads created later inherit
// the mask from their creator.
func pinToOneCPU() error {
	runtime.GOMAXPROCS(1)
	var mask [128]byte // room for 1024 CPUs
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, uintptr(len(mask)), uintptr(unsafe.Pointer(&mask[0]))); errno != 0 {
		return fmt.Errorf("sched_getaffinity: %w", errno)
	}
	var one [128]byte
	found := false
	for i, b := range mask {
		if b != 0 {
			one[i] = b & -b // lowest set bit
			found = true
			break
		}
	}
	if !found {
		return fmt.Errorf("sched_getaffinity: empty CPU mask")
	}
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		// A thread may have exited since the listing; only a failure on
		// every thread would matter, and the caller's own is among them.
		syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), uintptr(len(one)), uintptr(unsafe.Pointer(&one[0])))
	}
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, uintptr(len(one)), uintptr(unsafe.Pointer(&one[0]))); errno != 0 {
		return fmt.Errorf("sched_setaffinity: %w", errno)
	}
	return nil
}
