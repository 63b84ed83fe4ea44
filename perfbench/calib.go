package main

import (
	"math"
	"sort"
	"syscall"
	"time"
	"unsafe"

	"repro/perfbench/stats"
)

// The benchmark runs on shared hosts whose speed drifts: on a 2-vCPU
// VM a fixed loop ran anywhere from 470 to 830 iterations per second
// from one 1.5 s window to the next, and the same workload and seed
// moved CPU per op by 20% between two runs a minute apart. No figure
// taken from a clock alone is steadier than that.
//
// So the timed phase interleaves a fixed calibration kernel with the
// ops: every calEvery, between two ops, the caller runs the kernel and
// times it. The kernel never calls the program, so a change to the
// program moves the ops and not the kernel. Each op's time is scaled by
// the kernel's reference time over its median time around the op,
// which gives the op's time on a host where the kernel takes its
// reference time: the reported times are in reference-host units, and
// the unscaled ones are printed beside them.
const (
	calEvery = 20 * time.Millisecond
	// calSpan is the half-width of the interval whose kernel times set
	// an op's scale.
	calSpan = 250 * time.Millisecond
	// calGrid is the resolution of the scale over a phase.
	calGrid = 50 * time.Millisecond
)

// calPart is one part of the kernel, timed on its own.
type calPart int

const (
	// calWalk makes dependent reads and writes of a 32 KiB table,
	// which stays in L1.
	calWalk calPart = iota
	// calMap fills a Go map with pseudo-random keys.
	calMap
	numCalParts
)

// calRef is each part's time on the reference host: about its median
// on the 2-vCPU VM the benchmark was tuned on.
var calRef = [numCalParts]time.Duration{
	calWalk: 180 * time.Microsecond,
	calMap:  170 * time.Microsecond,
}

var (
	calTable = offHeapWords(1 << 12)
	calHash  = make(map[uint64]uint64, 4096)
)

// offHeapWords maps n words outside the Go heap, fills them and counts
// them in mappedTotal, which the RSS sampler subtracts: the table
// changes neither the GC's pacing nor the reported RSS.
func offHeapWords(n int) []uint64 {
	b, err := syscall.Mmap(-1, 0, 8*n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(err) // an anonymous mapping of 32 KiB
	}
	w := unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), n)
	for i := range w {
		w[i] = uint64(i) * 0x9E3779B97F4A7C15
	}
	mappedTotal.Add(int64(len(b)))
	return w
}

func (p calPart) run() {
	switch p {
	case calWalk:
		mask := uint64(len(calTable) - 1)
		h := calTable[0] | 1
		for i := uint64(0); i < 1<<15; i++ {
			j := (h >> 32) & mask
			h = (h^calTable[j])*0x100000001B3 + i
			calTable[(j*31+i)&mask] += h
		}
		calTable[0] = h
	case calMap:
		// The map keeps its buckets across clear, so this allocates
		// nothing.
		for r := 0; r < 2; r++ {
			clear(calHash)
			h := uint64(1)
			for i := uint64(0); i < 3000; i++ {
				h = h*6364136223846793005 + 1442695040888963407
				calHash[h>>40] += i
			}
		}
	}
}

// calSample is one kernel run: when it ended, from the start of the
// phase, each part's time, and the wall time the whole run took.
type calSample struct {
	at    time.Duration
	part  [numCalParts]time.Duration
	spent time.Duration
}

// calibrate runs every part of the kernel twice and times the second
// run. The first brings the part's data back into cache after the op
// that ran before it, so what the op left in the caches does not reach
// the measurement.
func calibrate() calSample {
	var s calSample
	t0 := time.Now()
	for p := calPart(0); p < numCalParts; p++ {
		p.run()
		t := time.Now()
		p.run()
		s.part[p] = time.Since(t)
	}
	s.spent = time.Since(t0)
	return s
}

// scaleOf is the scale the samples give with the parts a workload is
// calibrated by: the geometric mean over those parts of the part's
// reference time over its median time; 0 for no samples.
func scaleOf(ss []calSample, parts []calPart) float64 {
	if len(ss) == 0 {
		return 0
	}
	logSum := 0.0
	ds := make([]float64, len(ss))
	for _, p := range parts {
		for i, s := range ss {
			ds[i] = float64(s.part[p])
		}
		logSum += math.Log(float64(calRef[p]) / stats.Median(ds))
	}
	return math.Exp(logSum / float64(len(parts)))
}

// calScale is the scale over a phase, one factor per calGrid step:
// the scale of the samples within calSpan of the step.
type calScale []float64

func newCalScale(samples []calSample, parts []calPart, wall time.Duration) calScale {
	s := append([]calSample(nil), samples...)
	sort.Slice(s, func(a, b int) bool { return s[a].at < s[b].at })
	grid := make(calScale, int(wall/calGrid)+1)
	lo, hi := 0, 0
	for g := range grid {
		t := time.Duration(g) * calGrid
		for lo < len(s) && s[lo].at < t-calSpan {
			lo++
		}
		for hi < len(s) && s[hi].at <= t+calSpan {
			hi++
		}
		grid[g] = scaleOf(s[lo:hi], parts)
		if grid[g] == 0 && g > 0 {
			grid[g] = grid[g-1] // an op longer than the span hid the kernel
		}
	}
	// Leading steps without a sample take the first measured scale.
	for g := len(grid) - 1; g > 0; g-- {
		if grid[g-1] == 0 {
			grid[g-1] = grid[g]
		}
	}
	return grid
}

// at is the scale at t from the start of the phase.
func (c calScale) at(t time.Duration) float64 {
	if len(c) == 0 {
		return 1
	}
	g := min(len(c)-1, max(0, int((t+calGrid/2)/calGrid)))
	if c[g] == 0 {
		return 1
	}
	return c[g]
}

// calibrated runs f between two bursts of kernel runs and returns f's
// wall time and the scale of both bursts.
func calibrated(parts []calPart, f func() error) (raw time.Duration, scale float64, err error) {
	const burst = 16
	var ss []calSample
	for k := 0; k < burst; k++ {
		ss = append(ss, calibrate())
	}
	t0 := time.Now()
	err = f()
	raw = time.Since(t0)
	for k := 0; k < burst; k++ {
		ss = append(ss, calibrate())
	}
	return raw, scaleOf(ss, parts), err
}
