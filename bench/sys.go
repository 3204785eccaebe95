package main

import (
	"runtime"
	"syscall"
	"time"
)

// cpuTime returns user+system CPU consumed so far by the process.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's high-water resident set (Linux reports
// kilobytes).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// usage is a point-in-time reading of everything phase deltas are
// taken over.
type usage struct {
	wall    time.Time
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
	pauseNs uint64
}

// readUsage stops the world briefly (ReadMemStats); call it only at
// phase boundaries.
func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		wall:    time.Now(),
		cpu:     cpuTime(),
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
		pauseNs: ms.PauseTotalNs,
	}
}

// since returns the deltas from an earlier reading.
func (u usage) since(from usage) usageDelta {
	return usageDelta{
		wall:    u.wall.Sub(from.wall),
		cpu:     u.cpu - from.cpu,
		mallocs: u.mallocs - from.mallocs,
		bytes:   u.bytes - from.bytes,
		pauseNs: u.pauseNs - from.pauseNs,
	}
}

type usageDelta struct {
	wall, cpu      time.Duration
	mallocs, bytes uint64
	pauseNs        uint64
}
