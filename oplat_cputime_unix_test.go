//go:build unix

package deque

import "syscall"

// cpuTimeNs returns this process's cumulative CPU time (user + system) in
// nanoseconds. Unlike wall time it is immune to competing load on a
// shared box, which is what makes the A/B gates (scripts/ab.sh) able to
// resolve ~1% differences on a noisy single-core machine. Returns -1 when
// unavailable.
func cpuTimeNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return -1
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}
