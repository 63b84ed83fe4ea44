package main

import (
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// usage is a getrusage(RUSAGE_SELF) reading: process CPU (user+sys,
// every goroutine and the GC included) and peak RSS.
type usage struct {
	cpu      time.Duration
	maxRSSKB int64
}

func readUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}
	}
	return usage{
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		maxRSSKB: ru.Maxrss, // kilobytes on Linux
	}
}

// residentBytes is the process's current resident set, read from
// /proc/self/statm (0 where that file does not exist).
func residentBytes() int64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
