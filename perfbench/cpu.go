package main

import (
	"syscall"
	"time"
)

// processCPU is the CPU time (user and system, every thread) the process has
// used so far. Time during which the host did not run the process's virtual
// CPU (steal) is not in it, unlike wall time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("perfbench: getrusage: " + err.Error())
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
