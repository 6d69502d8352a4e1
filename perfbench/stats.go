package main

import (
	"runtime/metrics"
	"slices"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs (nearest rank), or 0 without
// samples. It sorts xs in place.
func quantile(xs []uint32, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	return float64(xs[min(int(q*float64(len(xs))), len(xs)-1)])
}

// quantileUs is quantile over ns samples, in µs.
func quantileUs(ns []uint32, q float64) float64 { return quantile(ns, q) / 1e3 }

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// snapshot is the process-wide state read at a window boundary.
type snapshot struct {
	cpu     time.Duration // user + system time of the process
	allocB  uint64        // bytes allocated on the Go heap, cumulative
	gcCPU   float64       // runtime's estimate of GC CPU seconds, cumulative
	usedCPU float64       // runtime's estimate of non-idle CPU seconds, cumulative
	closed  uint64        // queue epochs closed (epoch mode)
}

var runtimeMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func takeSnapshot(closed func() uint64) snapshot {
	s := snapshot{cpu: processCPU()}
	if closed != nil {
		s.closed = closed()
	}
	ms := make([]metrics.Sample, len(runtimeMetrics))
	for i, n := range runtimeMetrics {
		ms[i].Name = n
	}
	metrics.Read(ms)
	s.allocB = ms[0].Value.Uint64()
	s.gcCPU = ms[1].Value.Float64()
	s.usedCPU = ms[2].Value.Float64() - ms[3].Value.Float64()
	return s
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMiB is the process's peak resident set size.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
