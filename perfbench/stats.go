package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// median returns the median of xs (NaN for an empty slice).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// heapCounters is a runtime.MemStats snapshot of the counters the
// benchmark differences.
type heapCounters struct {
	totalAlloc uint64
	numGC      uint32
	pauseNs    uint64
}

func readHeap() heapCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return heapCounters{totalAlloc: ms.TotalAlloc, numGC: ms.NumGC, pauseNs: ms.PauseTotalNs}
}

// cpuSeconds is the user+system CPU time this process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

// userHZ is the unit of the CPU times in /proc/<pid>/stat: Linux reports
// them in USER_HZ ticks, which is 100 on every architecture Go supports.
const userHZ = 100

// processCPUSeconds is the user+system CPU time the process pid has used
// so far, summed over its threads, from /proc/<pid>/stat. The benchmark
// reads it only for the regserve daemon it started.
func processCPUSeconds(pid int) (float64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name (field 2) is in parentheses and may hold spaces;
	// utime and stime are fields 14 and 15, the 12th and 13th after it.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: %d fields after the command name", pid, len(f))
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, fmt.Errorf("/proc/%d/stat: %v", pid, err)
	}
	return (utime + stime) / userHZ, nil
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)*1e-6
}

// peakRSSBytes is this process's peak resident set size (Linux reports
// ru_maxrss in KiB).
func peakRSSBytes() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) * 1024
}

// stopwatch times a closure.
func stopwatch(fn func()) float64 {
	t0 := time.Now()
	fn()
	return time.Since(t0).Seconds()
}
