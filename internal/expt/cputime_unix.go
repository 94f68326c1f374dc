//go:build unix

package expt

import (
	"syscall"
	"time"
)

// processCPU returns the user plus system CPU time the process has used
// so far; ok is false when the platform cannot tell.
func processCPU() (d time.Duration, ok bool) {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0, false
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), true
}
