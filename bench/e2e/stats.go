package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0..1) of vals by linear interpolation
// between order statistics.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	xs := append([]float64(nil), vals...)
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), because that
// is what the acceptance rule is stated in.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) < 2 {
		return s[0], s[0]
	}
	at := func(k int) float64 {
		n := len(s)
		j := min(max(k*(n+1)/4, 1), n-1)
		delta := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// liveHeap is the heap still reachable after two collections (the second
// frees what finalizers and sweep left behind).
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// cpuTime is the process's user + system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // diagnostic only (process.cpu_us_per_ev)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// section measures one timed ingest section from outside: wall and CPU
// time, allocation and collector activity.
type section struct {
	t0  time.Time
	cpu time.Duration
	ms  runtime.MemStats

	WallNs   int64
	CPUNs    int64
	Alloc    uint64 // bytes
	Mallocs  uint64
	GCCycles uint32
	HeapSys  uint64
}

func (s *section) start() {
	runtime.ReadMemStats(&s.ms)
	s.cpu = cpuTime()
	s.t0 = time.Now()
}

func (s *section) stop() {
	s.WallNs = time.Since(s.t0).Nanoseconds()
	s.CPUNs = (cpuTime() - s.cpu).Nanoseconds()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.Alloc = ms.TotalAlloc - s.ms.TotalAlloc
	s.Mallocs = ms.Mallocs - s.ms.Mallocs
	s.GCCycles = ms.NumGC - s.ms.NumGC
	s.HeapSys = ms.HeapSys
}
