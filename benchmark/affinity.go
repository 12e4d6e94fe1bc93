package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// CPU placement. Left to the scheduler, the generator thread and the
// server's threads migrate between the cores and each other's caches, and on
// the 2-core host run-to-run spread was ~30 % (README, host caveats). So the
// benchmark splits the CPUs it is allowed: the generator takes the last one
// and runs on a single P, every child gets all the others — the shape of a
// client machine and a server machine. With one CPU allowed nothing is pinned.

type cpuMask [16]uint64 // 1024 CPUs

func maskOf(cpus []int) (m cpuMask) {
	for _, c := range cpus {
		m[c/64] |= 1 << (c % 64)
	}
	return m
}

func setAffinity(tid int, cpus []int) error {
	m := maskOf(cpus)
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); e != 0 {
		return fmt.Errorf("sched_setaffinity(%d, %v): %w", tid, cpus, e)
	}
	return nil
}

func allowedCPUs() []int {
	var m cpuMask
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); e != 0 {
		return nil
	}
	var cpus []int
	for c := 0; c < len(m)*64; c++ {
		if m[c/64]&(1<<(c%64)) != 0 {
			cpus = append(cpus, c)
		}
	}
	return cpus
}

// generatorCPU and serverCPUs are the split; serverCPUs is nil when nothing
// is pinned.
var (
	generatorCPU int
	serverCPUs   []int
)

// pinGenerator confines this process — every thread it has, and so every
// thread it will have — to the generator's CPU.
func pinGenerator() error {
	cpus := allowedCPUs()
	if len(cpus) < 2 {
		return nil
	}
	generatorCPU, serverCPUs = cpus[len(cpus)-1], cpus[:len(cpus)-1]
	runtime.GOMAXPROCS(1)
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return err
	}
	for _, t := range tasks {
		if tid, err := strconv.Atoi(t.Name()); err == nil {
			if err := setAffinity(tid, []int{generatorCPU}); err != nil {
				return err
			}
		}
	}
	return nil
}

// onServerCPUs runs start, which must fork a child, with the calling thread
// moved to the server's CPUs: the child inherits the mask.
func onServerCPUs(start func() error) error {
	if serverCPUs == nil {
		return start()
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if err := setAffinity(0, serverCPUs); err != nil {
		return err
	}
	defer setAffinity(0, []int{generatorCPU})
	return start()
}
