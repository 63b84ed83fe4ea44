package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/conf"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/petri"
	"repro/internal/registry"
	"repro/internal/verify"
)

// closureKind is one verify.Counting call: a registry protocol over
// the inputs x ∈ [0, maxX]. Verification is deterministic, so every op
// of a kind does the same work; the seed orders the ops.
type closureKind struct {
	protocol string
	param    int64
	maxX     int64
	spill    bool
}

// The closure kinds, cheapest first in each class. Common ops have
// largest closures of 10^2–2·10^3 configurations (0.3–6 ms here);
// heavy ops 4·10^3–3·10^4 (25–150 ms). Heavy kind 0, a third of the
// heavy ops, runs out of core: its arena spills to bucket files under
// a resident budget below its size. It is not the kind op_p90_ms lands
// in: its latency swung three times as much as the in-core kinds' from
// run to run (the spill arena makes its bucket directories on the real
// disk, past the faultfs seam).
var (
	closureCommon = [commonKinds]closureKind{
		{protocol: "example42", param: 4, maxX: 10},
		{protocol: "flock", param: 4, maxX: 11},
		{protocol: "leaderdoubling", param: 3, maxX: 11},
		{protocol: "flock", param: 5, maxX: 17},
	}
	closureHeavy = [heavyKinds]closureKind{
		{protocol: "flock", param: 6, maxX: 20, spill: true},
		{protocol: "flock", param: 7, maxX: 23},
		{protocol: "flock", param: 8, maxX: 26},
	}
)

// spillThreshold is the resident arena budget of spilled ops, well
// below the 0.2–0.3 MB arenas of the spilled kind.
const spillThreshold = 64 << 10

type closureInst struct {
	spillDir string
	spillFS  *memFS
	protos   map[string]*core.Protocol
	thresh   map[string]int64

	mu  sync.Mutex
	agg closureAgg
}

// closureAgg sums what the layer probes observe.
type closureAgg struct {
	nodes, edges, arena        int64
	evictions, loads           int64
	configs                    int64
	insertNs, lookupNs, hashNs int64
}

func protoKey(name string, param int64) string { return fmt.Sprintf("%s/%d", name, param) }

func setupClosure(e *env) (instance, error) {
	c := &closureInst{spillDir: filepath.Join(e.scratch, "spill"), spillFS: newMemFS(), protos: map[string]*core.Protocol{}, thresh: map[string]int64{}}
	kinds := append(closureCommon[:], closureHeavy[:]...)
	for _, k := range kinds {
		p, n, err := registry.Make(k.protocol, k.param)
		if err != nil {
			return nil, err
		}
		p.Net().Index()
		c.protos[protoKey(k.protocol, k.param)] = p
		c.thresh[protoKey(k.protocol, k.param)] = n
	}
	// Warm every kind once at its largest input, so the timed phase
	// starts with the heap grown and every code path resident.
	for _, k := range kinds {
		if _, err := c.verify(k); err != nil {
			return nil, fmt.Errorf("warm-up %s(%d) max_x=%d: %w", k.protocol, k.param, k.maxX, err)
		}
	}
	return c, nil
}

func closureKindOf(p pick) closureKind {
	if p.Heavy {
		return closureHeavy[p.Kind]
	}
	return closureCommon[p.Kind]
}

func (c *closureInst) budget(k closureKind) petri.Budget {
	if k.spill {
		return petri.Budget{SpillDir: c.spillDir, SpillThreshold: spillThreshold, SpillFS: c.spillFS}
	}
	return petri.Budget{}
}

// verify runs one op and checks it: every input verifies and no
// budget error occurs.
func (c *closureInst) verify(k closureKind) (time.Duration, error) {
	key, maxX := protoKey(k.protocol, k.param), k.maxX
	p := c.protos[key]
	t0 := time.Now()
	res, err := verify.Counting(p, "i", c.thresh[key], maxX, c.budget(k))
	lat := time.Since(t0)
	c.spillFS.removeTree(c.spillDir)
	if err != nil {
		return lat, err
	}
	if !res.OK() {
		return lat, fmt.Errorf("%s(%d) max_x=%d: input %v does not verify", k.protocol, k.param, maxX, res.FirstFailure().Input)
	}
	if int64(len(res.Reports)) != maxX+1 {
		return lat, fmt.Errorf("%s(%d) max_x=%d: %d reports, want %d", k.protocol, k.param, maxX, len(res.Reports), maxX+1)
	}
	return lat, nil
}

func (c *closureInst) run(i int, p pick) (time.Duration, error) {
	return c.verify(closureKindOf(p))
}

// probe replays the op's closures: Net.Reach on every input with the
// op's budget, fanned out like verify.Range (one input per worker),
// then the reverse-reachability pass verify makes on the closure's
// CSR. Those spans are children of the op. The SCC pass and the
// CountSet replay of the largest closure are recorded as standalone
// spans: verify does not make them, so they cover none of the op.
func (c *closureInst) probe(i int, pk pick, root int, tr *tracer) {
	k := closureKindOf(pk)
	maxX := k.maxX
	key := protoKey(k.protocol, k.param)
	p := c.protos[key]
	space, err := conf.NewSpace(p.InitialStates()...)
	if err != nil {
		return
	}
	var inputs []conf.Config
	for total := int64(0); total <= maxX; total++ {
		_ = conf.EnumerateTotal(space, total, func(ic conf.Config) bool {
			if emb, err := ic.Embed(p.Space()); err == nil {
				inputs = append(inputs, emb)
			}
			return true
		})
	}
	workers := min(runtime.GOMAXPROCS(0), len(inputs))
	budget := c.budget(k)
	budget.Workers = 1
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				expected := inputs[j].GetName("i") >= c.thresh[key]
				c.probeInput(i, root, tr, p, inputs[j], expected, budget, j == len(inputs)-1)
			}
		}()
	}
	for j := range inputs {
		jobs <- j
	}
	close(jobs)
	wg.Wait()
	c.spillFS.removeTree(c.spillDir)
}

func (c *closureInst) probeInput(op, root int, tr *tracer, p *core.Protocol, input conf.Config, expected bool, budget petri.Budget, largest bool) {
	initial := p.InitialConfig(input)
	var rs *petri.ReachSet
	var err error
	tr.do("petri.reach", op, root, func() { rs, err = p.Net().Reach(initial, budget) })
	if rs == nil {
		return
	}
	defer rs.Release()
	if err != nil {
		return
	}
	// The same two passes verify.Input makes: who reaches a node whose
	// output violates the expected consensus, then who reaches a node
	// that cannot.
	var bad []int
	for id := 0; id < rs.Len(); id++ {
		out := p.OutputOf(rs.Config(id))
		violates := out != core.Set1
		if !expected {
			violates = out&(core.SetStar|core.Set1) != 0
		}
		if violates {
			bad = append(bad, id)
		}
	}
	csr := rs.CSR()
	tr.do("graph.reachable", op, root, func() {
		radj := csr.Reverse()
		reachesBad := graph.ReachableFrom(radj, bad, nil)
		var stable []int
		for id, b := range reachesBad {
			if !b {
				stable = append(stable, id)
			}
		}
		graph.ReachableFrom(radj, stable, reachesBad)
	})
	tr.do("graph.scc", op, -1, func() { graph.SCCOf(csr) })
	ev, ld := rs.SpillStats()
	agg := closureAgg{nodes: int64(rs.Len()), edges: int64(rs.NumEdges()), arena: rs.ArenaBytes(), evictions: int64(ev), loads: int64(ld)}
	if largest {
		agg.configs, agg.insertNs, agg.lookupNs, agg.hashNs = replayCountSet(rs)
	}
	c.mu.Lock()
	c.agg.nodes += agg.nodes
	c.agg.edges += agg.edges
	c.agg.arena += agg.arena
	c.agg.evictions += agg.evictions
	c.agg.loads += agg.loads
	c.agg.configs += agg.configs
	c.agg.insertNs += agg.insertNs
	c.agg.lookupNs += agg.lookupNs
	c.agg.hashNs += agg.hashNs
	c.mu.Unlock()
}

// replayCountSet inserts a closure's configurations, in closure order,
// into a fresh in-RAM CountSet, then looks each up and hashes each,
// and returns the count and the total nanoseconds of each pass.
func replayCountSet(rs *petri.ReachSet) (n, insertNs, lookupNs, hashNs int64) {
	var flat []int64
	width := 0
	rs.ForEach(func(id int, c conf.Config) bool {
		raw := c.RawCounts()
		width = len(raw)
		flat = append(flat, raw...)
		return true
	})
	if width == 0 {
		return 0, 0, 0, 0
	}
	count := len(flat) / width
	set := conf.NewCountSet(width, 0)
	t0 := time.Now()
	for j := 0; j < count; j++ {
		set.Insert(flat[j*width : (j+1)*width])
	}
	t1 := time.Now()
	for j := 0; j < count; j++ {
		set.Lookup(flat[j*width : (j+1)*width])
	}
	t2 := time.Now()
	var sink uint64
	for j := 0; j < count; j++ {
		sink ^= conf.HashCounts(flat[j*width : (j+1)*width])
	}
	t3 := time.Now()
	hashSink = sink
	return int64(count), t1.Sub(t0).Nanoseconds(), t2.Sub(t1).Nanoseconds(), t3.Sub(t2).Nanoseconds()
}

// hashSink keeps the hash pass from being optimized away.
var hashSink uint64

func (c *closureInst) finish(tr *tracer, m metrics) error {
	if m == nil {
		return nil
	}
	ops := float64(max(1, len(tr.byName("op"))))
	reach := tr.byName("petri.reach")
	c.mu.Lock()
	a := c.agg
	c.mu.Unlock()
	m.set("petri.reach_calls", float64(len(reach))/ops)
	m.set("petri.reach_ms", sumMs(reach)/ops)
	m.set("petri.nodes", float64(a.nodes)/ops)
	m.set("petri.edges", float64(a.edges)/ops)
	if s := sumMs(reach) / 1000; s > 0 {
		m.set("petri.nodes_per_s", float64(a.nodes)/s)
	}
	m.set("petri.arena_mb", float64(a.arena)/(1<<20)/ops)
	m.set("conf.spill_evictions", float64(a.evictions)/ops)
	m.set("conf.spill_loads", float64(a.loads)/ops)
	if a.configs > 0 {
		m.set("conf.insert_ns", float64(a.insertNs)/float64(a.configs))
		m.set("conf.lookup_ns", float64(a.lookupNs)/float64(a.configs))
		m.set("conf.hash_ns", float64(a.hashNs)/float64(a.configs))
	}
	m.set("graph.scc_ms", sumMs(tr.byName("graph.scc"))/ops)
	m.set("graph.reachable_ms", sumMs(tr.byName("graph.reachable"))/ops)
	m.set("verify.op_ms", sumMs(tr.byName("op"))/ops)
	// verify is the op itself, so its self time is the op time the
	// petri/graph spans do not cover.
	m.set("verify.self_ms", uncoveredMs(tr))
	return nil
}

func (c *closureInst) close() error {
	return errors.Join(c.spillFS.close(), os.RemoveAll(c.spillDir))
}
