// Command perfbench is the repository's benchmark: one workload per
// process, a seeded op list, a closed-loop timed phase with every
// output checked, and a last stdout line of JSON metrics. See
// README.md for the workloads, the metrics and how to run it.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/hostmeta"
	"repro/perfbench/stats"
)

// setupRepeats is how many times a run prepares its workload; setup_s
// is the median. The last preparation serves the timed phase.
const setupRepeats = 5

// env is what a workload's set-up gets: where to put its directories,
// the seed, and the tracer (nil when tracing is off).
type env struct {
	scratch string
	seed    int64
	tr      *tracer
}

// workload prepares instances of one op mix.
type workload struct {
	name string
	// cal is the calibration kernel parts the workload's times are
	// scaled by (see calib.go): the ones that tracked its ops' speed
	// best. Over 1-2 s buckets on the 2-vCPU VM, a closure op's time
	// spread 3% against the walk and map parts together and 14%
	// unscaled; a simulation trial's 4% against the map part alone and
	// 25% unscaled, and a serve op's 6% and 18%.
	cal   []calPart
	setup func(e *env) (instance, error)
}

// instance is one prepared workload.
type instance interface {
	// run executes op i, timing only the op itself, and checks its
	// output; a failed or wrong op returns an error.
	run(i int, p pick) (time.Duration, error)
	// probe replays op i's layer calls outside the op timer, recording
	// spans under the op's root span.
	probe(i int, p pick, root int, tr *tracer)
	// finish runs the end-of-run checks and fills the workload's
	// per-layer metrics (m is nil when tracing is off).
	finish(tr *tracer, m metrics) error
	close() error
}

var workloads = map[string]workload{
	"closure": {name: "closure", cal: []calPart{calWalk, calMap}, setup: setupClosure},
	"sweep":   {name: "sweep", cal: []calPart{calMap}, setup: setupSweep},
	"serve":   {name: "serve", cal: []calPart{calMap}, setup: setupServe},
}

type opRecord struct {
	i    int
	pick pick
	lat  time.Duration
	err  error
	// done is when the op completed, from the start of the phase.
	done time.Duration
}

// phase is one closed-loop timed phase, cut into windows of equal
// length. Every end-to-end figure of the phase is computed per window
// and the median over the windows is reported, so a burst of load from
// outside the benchmark moves one window, not the run's figure.
type phase struct {
	ops  []opRecord
	wall time.Duration
	// probe is the total time spent in layer probes (traced phase only).
	probe time.Duration
	// cpu[k] is the process CPU time at the start of window k; the
	// last entry is taken at the end of the phase.
	cpu []time.Duration
	// rss[k] is the peak resident set sampled in window k, in bytes.
	rss []int64
	// cal holds the calibration kernel's runs between ops.
	cal    []calSample
	window time.Duration
	gc     runtime.MemStats
	gc0    runtime.MemStats
}

// windowsFor is the number of windows a timed phase of dur is cut
// into: one per 6 seconds, at most 6. A window of 6 s holds enough ops
// of every workload for its own p90 with 10 or more samples beyond.
func windowsFor(dur time.Duration) int {
	return max(1, min(6, int(dur/(6*time.Second))))
}

// runPhase is one closed-loop caller running ops for dur, starting at
// op index first. With a tracer, every op is followed by its layer
// probes, and probe time is kept out of the op's latency.
func runPhase(inst instance, first int, seed int64, dur time.Duration, tr *tracer) *phase {
	windows := windowsFor(dur)
	ph := &phase{window: dur / time.Duration(windows)}
	runtime.ReadMemStats(&ph.gc0)
	start := time.Now()
	deadline := start.Add(dur)
	// The sampler reads the resident set every 10 ms, less the memFS
	// file contents, keeping each window's peak; and getrusage at every
	// window boundary.
	ph.cpu = append(ph.cpu, readUsage().cpu)
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		var peak int64
		for k := 1; ; {
			select {
			case <-stop:
				ph.rss = append(ph.rss, peak)
				return
			case now := <-tick.C:
				peak = max(peak, residentBytes()-mappedTotal.Load())
				if k < windows && !now.Before(start.Add(time.Duration(k)*ph.window)) {
					ph.cpu = append(ph.cpu, readUsage().cpu)
					ph.rss = append(ph.rss, peak)
					peak = 0
					k++
				}
			}
		}
	}()
	lastCal := time.Time{}
	for i := first; time.Now().Before(deadline); i++ {
		if time.Since(lastCal) >= calEvery {
			c := calibrate()
			lastCal = time.Now()
			c.at = lastCal.Sub(start)
			ph.cal = append(ph.cal, c)
		}
		p := genOp(seed, i)
		t0 := time.Now()
		lat, err := inst.run(i, p)
		ph.ops = append(ph.ops, opRecord{i: i, pick: p, lat: lat, err: err, done: time.Since(start)})
		if tr != nil {
			root := tr.add("op", i, -1, t0, t0.Add(lat))
			pt := time.Now()
			inst.probe(i, p, root, tr)
			ph.probe += time.Since(pt)
		}
	}
	close(stop)
	<-sampled
	ph.wall = time.Since(start)
	ph.cpu = append(ph.cpu, readUsage().cpu)
	runtime.ReadMemStats(&ph.gc)
	return ph
}

func (ph *phase) latencies() (all, common, heavy []float64) {
	for _, r := range ph.ops {
		v := ms(r.lat)
		all = append(all, v)
		if r.pick.Heavy {
			heavy = append(heavy, v)
		} else {
			common = append(common, v)
		}
	}
	return all, common, heavy
}

func (ph *phase) failures() []opRecord {
	var out []opRecord
	for _, r := range ph.ops {
		if r.err != nil {
			out = append(out, r)
		}
	}
	return out
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: closure, sweep or serve")
	seed := fs.Int64("seed", 1, "seed of the generated op list")
	seconds := fs.Int("seconds", 10, "length of the timed phase")
	trace := fs.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	root := fs.String("root", ".", "checkout root; scratch and span files go under <root>/.bench_build")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return err
	}
	w, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q (have closure, sweep, serve)", *name)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("--seconds must be ≥ 1 and --trace 0 or 1")
	}
	// Every workload runs one caller under one P. The closure and sweep
	// ops fork work over the engines' workers, which the engines size
	// from GOMAXPROCS, and join it: an op waits for its slowest worker.
	// On a 2-vCPU VM whose second vCPU comes and goes with the host's
	// load, that join swung wall-clock figures by ±20% from run to run
	// while CPU per op moved ±4%. Two serve clients and the daemon's
	// handlers on two Ps spread by 25-30% on throughput, CPU per op and
	// both percentiles for the same reason. One caller on one P needs a
	// single vCPU.
	runtime.GOMAXPROCS(1)
	absRoot, err := filepath.Abs(*root)
	if err != nil {
		return err
	}
	base := filepath.Join(absRoot, ".bench_build", "scratch")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return err
	}
	scratch, err := os.MkdirTemp(base, w.name+"-")
	if err != nil {
		return err
	}
	// Every store, spill and queue directory lives under scratch and
	// goes with it, on success and on failure alike.
	defer os.RemoveAll(scratch)

	printHeader(w, *seed, scratch)
	// A binary built from a VCS checkout carries its commit, and
	// hostmeta.Commit reads it from there. Under go run it has none, and
	// Commit runs git instead: every shard.Run, every daemon and store
	// start and every /v1/sweep miss would wait on one or two child
	// processes, 1.5-2 ms a time, which is 60% of the cheapest sweep op
	// and swung with the host's scheduling. The header above has the
	// commit; from here on git is not found, and the program runs as
	// built.
	if err := os.Setenv("PATH", ""); err != nil {
		return err
	}
	e := &env{scratch: scratch, seed: *seed}
	dur := time.Duration(*seconds) * time.Second
	var res *result
	if *trace == 1 {
		res, err = runTraced(w, e, dur, filepath.Join(absRoot, ".bench_build", "traces", fmt.Sprintf("%s-seed%d.spans.jsonl", w.name, *seed)))
	} else {
		res, err = runUntraced(w, e, dur)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.RemoveAll(scratch)
		os.Exit(1)
	}
	return nil
}

func printHeader(w workload, seed int64, scratch string) {
	m := hostmeta.Collect()
	commit := m.Commit
	if commit == "" {
		commit = "unknown"
	}
	fmt.Printf("# perfbench workload=%s seed=%d callers=1\n", w.name, seed)
	fmt.Printf("# host=%s os=%s/%s nproc=%d gomaxprocs=%d go=%s commit=%s\n",
		m.Hostname, m.OS, m.Arch, m.NumCPU, m.GOMAXPROCS, m.GoVersion, commit)
	fmt.Printf("# engine workers=GOMAXPROCS (%d)\n", m.GOMAXPROCS)
	fmt.Printf("# scratch=%s (directories; store and spill contents live in memFS)\n", scratch)
}

// setupMedian prepares the workload setupRepeats times, each time from
// scratch, keeps the last instance and returns the median set-up wall
// time, each scaled to the reference host by kernel runs just before
// and after it.
func setupMedian(w workload, e *env) (instance, float64, error) {
	var raws, walls []float64
	var inst instance
	for k := 0; k < setupRepeats; k++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, 0, err
			}
		}
		raw, scale, err := calibrated(w.cal, func() (err error) {
			inst, err = w.setup(e)
			return err
		})
		if err != nil {
			return nil, 0, fmt.Errorf("set-up %d: %w", k, err)
		}
		raws = append(raws, raw.Seconds())
		walls = append(walls, raw.Seconds()*scale)
	}
	fmt.Printf("# set-up walls (s): %.4f, unscaled %.4f\n", walls, raws)
	return inst, stats.Median(walls), nil
}

func runUntraced(w workload, e *env, dur time.Duration) (*result, error) {
	inst, setupS, err := setupMedian(w, e)
	if err != nil {
		return nil, err
	}
	ph := runPhase(inst, 0, e.seed, dur, nil)
	finishErr := inst.finish(nil, nil)
	if err := inst.close(); err != nil && finishErr == nil {
		finishErr = err
	}
	m := metrics{}
	m.set("setup_s", setupS)
	wins, err := ph.windowStats(w.cal)
	if err != nil {
		return nil, err
	}
	var rate, cpu, rss, p50s, p90s []float64
	for k, ws := range wins {
		fmt.Printf("# window %d: n=%d scale=%.3f ops_per_s=%.2f cpu_ms_per_op=%.4f op_p50_ms=%.4f op_p90_ms=%.4f (%d beyond) rss_peak_mb=%.2f\n",
			k, ws.n, ws.scale, ws.scaled.rate, ws.scaled.cpuPerOp, ws.scaled.p50, ws.scaled.p90, ws.beyond, ws.rssMB)
		fmt.Printf("#   unscaled: ops_per_s=%.2f cpu_ms_per_op=%.4f op_p50_ms=%.4f op_p90_ms=%.4f\n",
			ws.raw.rate, ws.raw.cpuPerOp, ws.raw.p50, ws.raw.p90)
		rate, cpu, rss = append(rate, ws.scaled.rate), append(cpu, ws.scaled.cpuPerOp), append(rss, ws.rssMB)
		p50s, p90s = append(p50s, ws.scaled.p50), append(p90s, ws.scaled.p90)
	}
	m.set("ops_per_s", stats.Median(rate))
	m.set("cpu_ms_per_op", stats.Median(cpu))
	m.set("op_p50_ms", stats.Median(p50s))
	m.set("op_p90_ms", stats.Median(p90s))
	fails := ph.failures()
	n := float64(len(ph.ops))
	m.set("ok_ratio", (n-float64(len(fails)))/n)
	m.set("rss_peak_mb", stats.Median(rss))

	fmt.Printf("# %d ops in %d windows of %v; all but setup_s and ok_ratio are medians over windows; ru_maxrss=%.1f MB\n", len(ph.ops), len(wins), ph.window, float64(readUsage().maxRSSKB)/1024)
	fewest := wins[0].beyond
	for _, ws := range wins {
		fewest = min(fewest, ws.beyond)
	}
	for _, name := range endToEnd {
		extra := ""
		if name == "op_p90_ms" {
			extra = fmt.Sprintf("  (n=%d, every window >=%d beyond)", len(ph.ops), fewest)
		}
		fmt.Printf("%-16s %12.4f %s%s\n", name, m[name], units[name], extra)
	}
	printKinds(ph)
	correct := reportFailures(fails, finishErr)
	res := &result{Correct: correct, Attempted: len(ph.ops), Failed: len(fails), Metrics: m.out(endToEnd)}
	return res, nil
}

// windowStat is one window's throughput, CPU per op, latency
// percentiles and peak RSS, over the ops that completed in it. Times
// are scaled to the reference host (see calib.go); raw holds the same
// figures unscaled.
type windowStat struct {
	n           int
	scale       float64 // mean scale of the window's ops
	beyond      int     // samples beyond p90
	rssMB       float64
	scaled, raw timing
}

type timing struct {
	rate, cpuPerOp, p50, p90 float64
}

func (ph *phase) windowStats(parts []calPart) ([]windowStat, error) {
	k := len(ph.cpu) - 1
	scale := newCalScale(ph.cal, parts, ph.wall)
	type win struct {
		raw, scaled []float64
		fsum        float64
		cal         time.Duration
	}
	wins := make([]win, k)
	index := func(t time.Duration) int { return min(k-1, int(t/ph.window)) }
	for _, r := range ph.ops {
		w := &wins[index(r.done)]
		f := scale.at(r.done - r.lat/2)
		w.raw = append(w.raw, ms(r.lat))
		w.scaled = append(w.scaled, ms(r.lat)*f)
		w.fsum += f
	}
	for _, c := range ph.cal {
		wins[index(c.at)].cal += c.spent
	}
	var out []windowStat
	for j, w := range wins {
		n := len(w.raw)
		if n == 0 {
			return nil, fmt.Errorf("window %d completed no op", j)
		}
		length := ph.window
		if j == k-1 {
			length = ph.wall - time.Duration(k-1)*ph.window
		}
		// The kernel's own time is neither op time nor op CPU.
		busy := length - w.cal
		cpu := ph.cpu[j+1] - ph.cpu[j] - w.cal
		ws := windowStat{n: n, scale: w.fsum / float64(n), rssMB: float64(ph.rss[min(j, len(ph.rss)-1)]) / (1 << 20)}
		var err error
		if ws.raw, _, err = timingOf(w.raw, busy, cpu, 1); err != nil {
			return nil, fmt.Errorf("window %d: %w", j, err)
		}
		if ws.scaled, ws.beyond, err = timingOf(w.scaled, busy, cpu, ws.scale); err != nil {
			return nil, fmt.Errorf("window %d: %w", j, err)
		}
		out = append(out, ws)
	}
	return out, nil
}

// timingOf is a window's timing from its op latencies (ms), the time
// it spent on ops, its CPU time and the scale of both times.
func timingOf(lats []float64, busy, cpu time.Duration, scale float64) (timing, int, error) {
	p50, _, err50 := stats.Percentile(lats, 50)
	p90, beyond, err90 := stats.Percentile(lats, 90)
	if err := errors.Join(err50, err90); err != nil {
		return timing{}, beyond, fmt.Errorf("too short for its percentiles: %w", err)
	}
	n := float64(len(lats))
	return timing{
		rate:     n / (busy.Seconds() * scale),
		cpuPerOp: ms(cpu) * scale / n,
		p50:      p50,
		p90:      p90,
	}, beyond, nil
}

// printKinds prints the median latency of every op kind, so the
// class split behind the percentiles can be read off each run.
func printKinds(ph *phase) {
	byKind := map[pick][]float64{}
	for _, r := range ph.ops {
		k := pick{Heavy: r.pick.Heavy, Kind: r.pick.Kind}
		byKind[k] = append(byKind[k], ms(r.lat))
	}
	for _, heavy := range []bool{false, true} {
		class, n := "common", commonKinds
		if heavy {
			class, n = "heavy", heavyKinds
		}
		for k := 0; k < n; k++ {
			xs := byKind[pick{Heavy: heavy, Kind: k}]
			fmt.Printf("# %s kind %d: n=%d median=%.3f ms\n", class, k, len(xs), stats.Median(xs))
		}
	}
}

// reportFailures prints every failed op and the end-of-run check, and
// reports whether the run was correct.
func reportFailures(fails []opRecord, finishErr error) bool {
	const shown = 20
	for j, f := range fails {
		if j == shown {
			fmt.Printf("FAIL ... and %d more failed ops\n", len(fails)-shown)
			break
		}
		fmt.Printf("FAIL op %d (heavy=%v kind=%d): %v\n", f.i, f.pick.Heavy, f.pick.Kind, f.err)
	}
	if finishErr != nil {
		fmt.Printf("FAIL end-of-run check: %v\n", finishErr)
	}
	return len(fails) == 0 && finishErr == nil
}

// runTraced runs an untraced pass and a traced pass of dur/2 each on
// one set-up, and derives the per-layer metrics from the traced pass's
// spans.
func runTraced(w workload, e *env, dur time.Duration, spanPath string) (*result, error) {
	tr := newTracer()
	e.tr = tr
	inst, err := w.setup(e)
	if err != nil {
		return nil, err
	}
	plain := runPhase(inst, 0, e.seed, dur/2, nil)
	traced := runPhase(inst, len(plain.ops), e.seed, dur/2, tr)
	m := metrics{}
	finishErr := inst.finish(tr, m)
	if err := inst.close(); err != nil && finishErr == nil {
		finishErr = err
	}

	plainRate := float64(len(plain.ops)) / plain.wall.Seconds()
	tracedRate := float64(len(traced.ops)) / (traced.wall - traced.probe).Seconds()
	m.set(w.name+".trace_overhead_pct", 100*(plainRate-tracedRate)/plainRate)
	m.set(w.name+".unattributed_ms", uncoveredMs(tr))
	classMetrics(plain, m)
	runtimeMetrics(plain, m)

	for _, name := range perLayer {
		fmt.Printf("%-34s %14.4f %s\n", name, m[name], units[name])
	}
	if err := tr.write(spanPath); err != nil {
		return nil, err
	}
	fmt.Printf("# spans: %s\n", spanPath)
	fails := append(plain.failures(), traced.failures()...)
	correct := reportFailures(fails, finishErr)
	if err := m.check(); err != nil {
		return nil, err
	}
	return &result{Correct: correct, Attempted: len(plain.ops) + len(traced.ops), Failed: len(fails), Metrics: m.out(perLayer)}, nil
}

// uncoveredMs is the mean, over traced ops, of op time that none of
// the op's layer spans covers.
func uncoveredMs(tr *tracer) float64 {
	kids := map[int][]span{}
	tr.mu.Lock()
	for _, s := range tr.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	var total time.Duration
	n := 0
	for id, s := range tr.spans {
		if s.Name == "op" {
			total += s.dur() - shiftedCover(kids[id], s.dur())
			n++
		}
	}
	tr.mu.Unlock()
	return ms(total) / float64(max(1, n))
}

// classMetrics reports where the percentiles fall: the median of each
// class, the heavy share, and whether the p50 lies in the middle half
// of the common class (between its quartiles) and the p90 in the
// middle half of the heavy class. A class's tail can reach past the
// other's edge (a GC cycle, a slow second of the host), so the op at
// either rank may belong to the other class now and then; what the
// class split promises is that each percentile falls well inside its
// own class's distribution, away from the gap between the two.
func classMetrics(ph *phase, m metrics) {
	all, common, heavy := ph.latencies()
	m.set("class.common_p50_ms", stats.Median(common))
	m.set("class.heavy_p50_ms", stats.Median(heavy))
	m.set("class.heavy_share", float64(len(heavy))/float64(max(1, len(ph.ops))))
	if len(common) > 0 && len(heavy) > 0 {
		p50, p90 := nearestRank(all, 50), nearestRank(all, 90)
		m.set("class.p50_is_common", b2f(nearestRank(common, 25) <= p50 && p50 <= nearestRank(common, 75)))
		m.set("class.p90_is_heavy", b2f(nearestRank(heavy, 25) <= p90 && p90 <= nearestRank(heavy, 75)))
	}
}

// nearestRank is the nearest-rank p-th percentile of xs, which must
// not be empty.
func nearestRank(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[max(0, int(math.Ceil(p/100*float64(len(s))))-1)]
}

func runtimeMetrics(ph *phase, m metrics) {
	cycles := float64(ph.gc.NumGC - ph.gc0.NumGC)
	m.set("runtime.gc_cycles", cycles/float64(max(1, len(ph.ops))))
	m.set("runtime.gc_cpu_fraction", ph.gc.GCCPUFraction)
	m.set("runtime.gc_pause_ms", float64(ph.gc.PauseTotalNs-ph.gc0.PauseTotalNs)/1e6/float64(max(1, len(ph.ops))))
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
