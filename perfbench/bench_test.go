package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/perfbench/stats"
)

func TestPercentileRefusesThinTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	v, beyond, err := stats.Percentile(xs, 90)
	if err != nil || v != 90 || beyond != 10 {
		t.Fatalf("p90 of 1..100 = %v (%d beyond, err %v), want 90 with 10 beyond", v, beyond, err)
	}
	if _, beyond, err := stats.Percentile(xs[:99], 90); err == nil {
		t.Fatalf("p90 of 99 samples has %d beyond and was not refused", beyond)
	}
	if _, _, err := stats.Percentile(xs[:50], 90); err == nil {
		t.Fatal("p90 of 50 samples was not refused")
	}
	if v, _, err := stats.Percentile(xs, 50); err != nil || v != 50 {
		t.Fatalf("p50 of 1..100 = %v, %v; want 50", v, err)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := stats.Quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestGeneratorDeterministicAndSplit(t *testing.T) {
	const n = 5000
	for _, seed := range []int64{1, 2, 7919, -3} {
		var a, b []pick
		for i := 0; i < n; i++ {
			a = append(a, genOp(seed, i))
			b = append(b, genOp(seed, i))
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: two generations differ", seed)
		}
		for _, prefix := range []int{100, 997, n} {
			heavy := 0
			for _, p := range a[:prefix] {
				if p.Heavy {
					heavy++
				}
			}
			if share := float64(heavy) / float64(prefix); share < 0.17 || share > 0.23 {
				t.Errorf("seed %d: heavy share %.3f over %d ops, want 0.20±0.03", seed, share, prefix)
			}
		}
	}
	same := 0
	for i := 0; i < 100; i++ {
		if genOp(1, i) == genOp(2, i) {
			same++
		}
	}
	if same == 100 {
		t.Fatal("seeds 1 and 2 generate the same op list")
	}
}

func TestMetricNames(t *testing.T) {
	for name := range units {
		if !metricName.MatchString(name) {
			t.Errorf("metric name %q does not match %v", name, metricName)
		}
	}
	for name := range workloads {
		for _, suffix := range []string{".unattributed_ms", ".trace_overhead_pct"} {
			if _, ok := units[name+suffix]; !ok {
				t.Errorf("workload %s: %s%s is not declared", name, name, suffix)
			}
		}
	}
}

// The metrics the benchmark prints are exactly the ones BENCHMARK.json
// declares, with the same unit and direction.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type declared struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []declared              `json:"end_to_end"`
		PerLayer  []declared              `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	same := func(js []declared, ds []decl) bool {
		if len(js) != len(ds) {
			return false
		}
		for i, d := range ds {
			if js[i] != (declared{d.name, d.unit, d.better}) {
				return false
			}
		}
		return true
	}
	if !same(b.EndToEnd, endToEndDecls) {
		t.Errorf("end_to_end in BENCHMARK.json differs from endToEndDecls")
	}
	if !same(b.PerLayer, perLayerDecls) {
		t.Errorf("per_layer in BENCHMARK.json differs from perLayerDecls")
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json declares workload %q the benchmark does not run", w.Name)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the benchmark runs %d", len(b.Workloads), len(workloads))
	}
	m := metrics{"not.declared": 1}
	if err := m.check(); err == nil {
		t.Error("an undeclared metric passed the check")
	}
}

// Each workload's ops run concurrently as in a timed phase, untraced
// and traced, and every output is correct. Under -race this is the
// check that the probes, the caller and the daemon's handlers share
// state safely.
func TestWorkloadsRunConcurrently(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for name, w := range workloads {
		t.Run(name, func(t *testing.T) {
			tr := newTracer()
			e := &env{scratch: t.TempDir(), seed: 5, tr: tr}
			inst, err := w.setup(e)
			if err != nil {
				t.Fatal(err)
			}
			plain := runPhase(inst, 0, e.seed, time.Second, nil)
			traced := runPhase(inst, len(plain.ops), e.seed, time.Second, tr)
			m := metrics{}
			finishErr := inst.finish(tr, m)
			if err := errors.Join(finishErr, inst.close(), m.check()); err != nil {
				t.Fatal(err)
			}
			for _, ph := range []*phase{plain, traced} {
				if len(ph.ops) == 0 {
					t.Fatal("a phase ran no op")
				}
				for _, f := range ph.failures() {
					t.Errorf("op %d: %v", f.i, f.err)
				}
			}
		})
	}
}

// Each workload runs briefly through the whole command path, untraced
// and traced, prints every metric it declares, and its percentiles
// land in their classes.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("runs every workload at full speed")
	}
	for name, w := range workloads {
		t.Run(name, func(t *testing.T) {
			e := &env{scratch: t.TempDir(), seed: 3}
			res, err := runUntraced(w, e, 3*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || len(res.Metrics) != len(endToEnd) {
				t.Fatalf("untraced: %+v", res)
			}
			e = &env{scratch: t.TempDir(), seed: 3}
			res, err = runTraced(w, e, 4*time.Second, e.scratch+"/spans.jsonl")
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || len(res.Metrics) != len(perLayer) {
				t.Fatalf("traced: correct=%v, %d metrics", res.Correct, len(res.Metrics))
			}
			for metric, v := range res.Metrics {
				if strings.HasPrefix(metric, "class.p") && v.Value != 1 {
					t.Errorf("%s = %v: a percentile left its class", metric, v.Value)
				}
			}
		})
	}
}

// The calibration scale is the kernel's reference time over its median
// time near t: 1 on a host as fast as the reference, 1/2 where the
// kernel takes twice as long, and the nearest measured value where no
// kernel ran.
func TestCalScale(t *testing.T) {
	sample := func(at time.Duration, slow time.Duration) calSample {
		var s calSample
		s.at = at
		for p := range s.part {
			s.part[p] = calRef[p] * slow
		}
		return s
	}
	var ss []calSample
	for at := 2 * time.Second; at < 4*time.Second; at += calEvery {
		ss = append(ss, sample(at, 1))
	}
	for at := 5 * time.Second; at < 8*time.Second; at += calEvery {
		ss = append(ss, sample(at, 2))
	}
	sc := newCalScale(ss, []calPart{calWalk, calMap}, 8*time.Second)
	for _, c := range []struct {
		t    time.Duration
		want float64
	}{
		{0, 1}, {3 * time.Second, 1}, {4500 * time.Millisecond, 1}, {6 * time.Second, 0.5}, {8 * time.Second, 0.5},
	} {
		if got := sc.at(c.t); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("scale at %v = %v, want %v", c.t, got, c.want)
		}
	}
	// A part the workload is not scaled by does not move its scale.
	for i := range ss {
		ss[i].part[calWalk] *= 3
	}
	if got := newCalScale(ss, []calPart{calMap}, 8*time.Second).at(3 * time.Second); math.Abs(got-1) > 1e-9 {
		t.Errorf("map-only scale at 3s = %v, want 1", got)
	}
}
