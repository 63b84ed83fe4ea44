package main

import (
	"fmt"
	"regexp"
)

// decl is one declared metric: its unit and which direction is better.
// BENCHMARK.json declares the same names; a test keeps the two equal.
type decl struct {
	name, unit, better string
}

var endToEndDecls = []decl{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "ops/s", "higher"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"op_p50_ms", "ms", "lower"},
	{"op_p90_ms", "ms", "lower"},
	{"ok_ratio", "ratio", "higher"},
	{"rss_peak_mb", "MB", "lower"},
}

// perLayerDecls are the traced run's metrics. Every traced run prints
// all of them; a layer the workload never calls reads 0.
var perLayerDecls = []decl{
	// petri: Net.Reach replayed on each input of a closure op.
	{"petri.reach_calls", "count/op", "lower"},
	{"petri.reach_ms", "ms/op", "lower"},
	{"petri.nodes", "count/op", "lower"},
	{"petri.edges", "count/op", "lower"},
	{"petri.nodes_per_s", "1/s", "higher"},
	{"petri.arena_mb", "MB/op", "lower"},
	// conf: spill traffic of the replayed closures, and their
	// configurations replayed into a fresh CountSet.
	{"conf.spill_evictions", "count/op", "lower"},
	{"conf.spill_loads", "count/op", "lower"},
	{"conf.insert_ns", "ns", "lower"},
	{"conf.lookup_ns", "ns", "lower"},
	{"conf.hash_ns", "ns", "lower"},
	// graph: the SCC and reachability passes on the closure's CSR.
	{"graph.scc_ms", "ms/op", "lower"},
	{"graph.reachable_ms", "ms/op", "lower"},
	// verify: the op, and the op minus what petri/graph spans cover.
	{"verify.op_ms", "ms/op", "lower"},
	{"verify.self_ms", "ms/op", "lower"},
	// sim: sim.Run on a sweep op's (protocol, size, trial seed).
	{"sim.trial_ms.weighted", "ms", "lower"},
	{"sim.trial_ms.uniform", "ms", "lower"},
	{"sim.trial_ms.countbatch", "ms", "lower"},
	{"sim.trial_ms.auto", "ms", "lower"},
	{"sim.interactions.weighted", "count", "lower"},
	{"sim.interactions.uniform", "count", "lower"},
	{"sim.interactions.countbatch", "count", "lower"},
	{"sim.interactions.auto", "count", "lower"},
	{"sim.ns_per_interaction.weighted", "ns", "lower"},
	{"sim.ns_per_interaction.uniform", "ns", "lower"},
	{"sim.ns_per_interaction.countbatch", "ns", "lower"},
	{"sim.ns_per_interaction.auto", "ns", "lower"},
	{"sim.converged_ratio", "ratio", "higher"},
	{"sim.correct_ratio", "ratio", "higher"},
	// shard: planning in set-up, the shard run, the fold, and the
	// cell-line seal/decode.
	{"shard.plan_ms", "ms", "lower"},
	{"shard.run_ms", "ms/op", "lower"},
	{"shard.merge_partial_ms", "ms", "lower"},
	{"shard.seal_us", "us", "lower"},
	{"shard.decode_us", "us", "lower"},
	// canon: checksum cost on cell lines and store artifacts.
	{"canon.checksum_us_per_kb", "us/KB", "lower"},
	// http: client-side round trips.
	{"http.roundtrip_ms.hit", "ms", "lower"},
	{"http.roundtrip_ms.miss", "ms", "lower"},
	// key: key.Of on each request's query.
	{"key.of_us", "us", "lower"},
	// store: warm get, fresh publish on a probe store, and the
	// daemon store's counters.
	{"store.get_us", "us", "lower"},
	{"store.publish_ms", "ms", "lower"},
	{"store.hit_ratio", "ratio", "higher"},
	{"store.dedups", "count", "lower"},
	{"store.io_retries", "count", "lower"},
	{"store.put_failures", "count", "lower"},
	// faultfs: I/O counts through a counting FS under the daemon store.
	{"faultfs.fsyncs_per_publish", "count", "lower"},
	{"faultfs.bytes_per_publish", "bytes", "lower"},
	{"faultfs.ops_per_request", "count", "lower"},
	// serve: the miss query's engine call, /metrics phases and
	// refusals, and the handler's own time per class.
	{"serve.compute_ms", "ms", "lower"},
	{"serve.admit_mean_us", "us", "lower"},
	{"serve.plan_mean_us", "us", "lower"},
	{"serve.run_mean_us", "us", "lower"},
	{"serve.admission_rejected", "count", "lower"},
	{"serve.timeouts", "count", "lower"},
	{"serve.handler_self_ms.hit", "ms", "lower"},
	{"serve.handler_self_ms.miss", "ms", "lower"},
	// runtime: Go GC over the untraced pass.
	{"runtime.gc_cycles", "1/op", "lower"},
	{"runtime.gc_cpu_fraction", "ratio", "lower"},
	{"runtime.gc_pause_ms", "ms/op", "lower"},
	// Where the percentiles fall (untraced pass of the traced run).
	{"class.common_p50_ms", "ms", "lower"},
	{"class.heavy_p50_ms", "ms", "lower"},
	{"class.heavy_share", "ratio", "lower"},
	{"class.p50_is_common", "bool", "higher"},
	{"class.p90_is_heavy", "bool", "higher"},
	// Per workload: op time no layer span covers, and the traced
	// pass's throughput loss against the untraced pass.
	{"closure.unattributed_ms", "ms", "lower"},
	{"closure.trace_overhead_pct", "%", "lower"},
	{"sweep.unattributed_ms", "ms", "lower"},
	{"sweep.trace_overhead_pct", "%", "lower"},
	{"serve.unattributed_ms", "ms", "lower"},
	{"serve.trace_overhead_pct", "%", "lower"},
}

var (
	endToEnd = names(endToEndDecls)
	perLayer = names(perLayerDecls)
	units    = unitMap()
)

func names(ds []decl) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = d.name
	}
	return out
}

func unitMap() map[string]string {
	u := map[string]string{}
	for _, d := range append(append([]decl(nil), endToEndDecls...), perLayerDecls...) {
		u[d.name] = d.unit
	}
	return u
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// metrics collects one run's values by name.
type metrics map[string]float64

func (m metrics) set(name string, v float64) { m[name] = v }

// check refuses a value under a name nobody declared: a metric that is
// printed must be declared in BENCHMARK.json.
func (m metrics) check() error {
	for name := range m {
		if _, ok := units[name]; !ok {
			return fmt.Errorf("metric %q is set but not declared", name)
		}
	}
	return nil
}

// out renders the named metrics for the result line; a declared metric
// the run did not set reads 0.
func (m metrics) out(names []string) map[string]metric {
	res := make(map[string]metric, len(names))
	for _, n := range names {
		res[n] = metric{Value: m[n], Unit: units[n]}
	}
	return res
}
