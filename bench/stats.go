package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of sorted, linearly
// interpolated between the two closest ranks; 0 for an empty sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(rank-float64(lo))
}

// median sorts v in place and returns its 50th percentile.
func median(v []float64) float64 {
	sort.Float64s(v)
	return percentile(v, 50)
}

// nsToMs converts a slice of nanosecond values to sorted milliseconds.
func nsToMs(ns []int64) []float64 {
	ms := make([]float64, len(ns))
	for i, v := range ns {
		ms[i] = float64(v) / 1e6
	}
	sort.Float64s(ms)
	return ms
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// processCPU is the user+system CPU time this process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's peak resident set (Linux reports KiB).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// mean is the arithmetic mean of v; 0 for an empty sample.
func mean(v []float64) float64 {
	var sum float64
	for _, x := range v {
		sum += x
	}
	return ratio(sum, float64(len(v)))
}
