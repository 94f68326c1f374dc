//go:build !unix

package expt

import "time"

// processCPU reports that process CPU time is unavailable here.
func processCPU() (time.Duration, bool) { return 0, false }
