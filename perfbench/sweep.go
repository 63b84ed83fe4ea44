package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/canon"
	"repro/internal/core"
	"repro/internal/shard"
	"repro/internal/sim"
)

// sweepKind is one family of sweep plans. Sizes sit on both sides of
// the protocol's threshold, so every plan checks a false and a true
// instance.
type sweepKind struct {
	protocol  string
	param     int64
	sizes     []int64
	scheduler string
	trials    int
}

// The sweep kinds, cheapest first in each class. Common kinds run the
// exact per-interaction schedulers at 10^3–10^4 agents; heavy kinds the
// count-batched ones at 10^6–10^8 agents (the E11 regime), which take
// another path through sim.
var (
	sweepCommon = [commonKinds]sweepKind{
		{protocol: "power2", param: 10, sizes: []int64{1023, 1024}, scheduler: "weighted", trials: 4},
		{protocol: "flock", param: 8, sizes: []int64{7, 500}, scheduler: "uniform", trials: 8},
		{protocol: "flock", param: 8, sizes: []int64{7, 2000}, scheduler: "weighted", trials: 16},
		{protocol: "power2", param: 12, sizes: []int64{4095, 4096}, scheduler: "weighted", trials: 32},
	}
	sweepHeavy = [heavyKinds]sweepKind{
		{protocol: "power2", param: 20, sizes: []int64{1<<20 - 1, 1 << 20}, scheduler: "countbatch", trials: 16},
		{protocol: "power2", param: 23, sizes: []int64{1<<23 - 1, 1 << 23}, scheduler: "auto", trials: 16},
		{protocol: "flock", param: 8, sizes: []int64{7, 100_000_000}, scheduler: "countbatch", trials: 64},
	}
)

const (
	sweepBlock  = 2
	sweepShards = 2
	// plansPerKind sweeps are planned per kind in set-up, with seeds
	// derived from the run's seed; ops cycle through them. A trial's
	// cost depends on its seed, so each plan's shards cost differently;
	// with 8 plans a kind, which costs a run drew moved op_p50_ms by 10%
	// from seed to seed.
	plansPerKind = 32
)

// sweepPlan is one planned sweep and the shard artifacts of its
// current pass.
type sweepPlan struct {
	m         *shard.Manifest
	proto     *core.Protocol
	threshold int64
	arts      []*shard.Artifact
}

// sweepCursor walks a kind's plans shard by shard.
type sweepCursor struct {
	plans []*sweepPlan
	plan  int
	shard int
}

type sweepInst struct {
	e       *env
	cursors map[pick]*sweepCursor
	// Folded sweeps are checked at the end of the op that completes
	// them, outside the op's timer; a failed fold is reported with
	// that op.
	mu    sync.Mutex
	agg   sweepAgg
	folds int
	// last is the most recent op's plan, shard and artifact, for its
	// probe (the workload has one caller).
	last struct {
		plan *sweepPlan
		spec shard.Spec
		art  *shard.Artifact
	}
}

type sweepAgg struct {
	trialNs, steps                  map[string]int64
	trials                          map[string]int64
	probeTrials, converged, correct int64
	cells                           int64
	sealNs, decodeNs, sumNs         int64
	sumBytes                        int64
}

func setupSweep(e *env) (instance, error) {
	s := &sweepInst{e: e, cursors: map[pick]*sweepCursor{}}
	s.agg.trialNs, s.agg.steps, s.agg.trials = map[string]int64{}, map[string]int64{}, map[string]int64{}
	var keys []pick
	var kinds []sweepKind
	for k, kind := range sweepCommon {
		keys, kinds = append(keys, pick{Kind: k}), append(kinds, kind)
	}
	for k, kind := range sweepHeavy {
		keys, kinds = append(keys, pick{Heavy: true, Kind: k}), append(kinds, kind)
	}
	for ki, kind := range kinds {
		cur := &sweepCursor{}
		for j := 0; j < plansPerKind; j++ {
			sw := shard.SweepSpec{
				Protocol: kind.protocol, Param: kind.param, InputState: "i",
				Sizes: kind.sizes, Trials: kind.trials,
				Seed:      sim.DeriveSeedK(e.seed, int64(ki*plansPerKind+j)),
				MaxSteps:  math.MaxInt32,
				Scheduler: kind.scheduler,
			}
			p, n, err := sw.Build()
			if err != nil {
				return nil, err
			}
			t0 := time.Now()
			m, err := shard.PlanCostBlock(sw, sweepShards, shard.DefaultCost(kind.scheduler), sweepBlock)
			e.tr.add("shard.plan", -1, -1, t0, time.Now())
			if err != nil {
				return nil, err
			}
			cur.plans = append(cur.plans, &sweepPlan{m: m, proto: p, threshold: n})
		}
		s.cursors[keys[ki]] = cur
	}
	// Run and fold the first plan of every kind once: the timed phase
	// then starts with every scheduler's code path and buffers warm.
	for _, key := range keys {
		plan := s.cursors[key].plans[0]
		var arts []*shard.Artifact
		for _, sh := range plan.m.Shards {
			a, err := shard.Run(context.Background(), plan.m, sh.ID, 0)
			if err != nil {
				return nil, fmt.Errorf("warm-up %+v: %w", key, err)
			}
			arts = append(arts, a)
		}
		if err := checkFold(plan, arts); err != nil {
			return nil, fmt.Errorf("warm-up %+v: %w", key, err)
		}
	}
	return s, nil
}

// checkFold folds a finished sweep's shard artifacts with the anytime
// merge and checks every point: all planned trials present, and every
// trial converged to the correct output.
func checkFold(plan *sweepPlan, arts []*shard.Artifact) error {
	sw, points, err := shard.CollectPartial(arts, nil)
	if err != nil {
		return err
	}
	merged, err := shard.MergePartial(sw, points, sim.StopRule{})
	if err != nil {
		return err
	}
	if merged.Partial || len(merged.Points) != len(plan.m.Sweep.Sizes) {
		return fmt.Errorf("fold of %d shards is partial (%d of %d points)", len(arts), len(merged.Points), len(plan.m.Sweep.Sizes))
	}
	for _, pt := range merged.Points {
		st := pt.Stats
		if st.Trials != plan.m.Sweep.Trials || st.Converged != st.Trials || st.Correct != st.Trials {
			return fmt.Errorf("size %d: trials=%d converged=%d correct=%d, want all %d", pt.X, st.Trials, st.Converged, st.Correct, plan.m.Sweep.Trials)
		}
	}
	return nil
}

func (s *sweepInst) run(i int, p pick) (time.Duration, error) {
	cur := s.cursors[pick{Heavy: p.Heavy, Kind: p.Kind}]
	plan := cur.plans[cur.plan]
	spec := plan.m.Shards[cur.shard]
	t0 := time.Now()
	a, err := shard.Run(context.Background(), plan.m, spec.ID, 0)
	lat := time.Since(t0)
	if err != nil {
		return lat, err
	}
	s.last.plan, s.last.spec, s.last.art = plan, spec, a
	plan.arts = append(plan.arts, a)
	cur.shard++
	if cur.shard < len(plan.m.Shards) {
		return lat, nil
	}
	// The sweep is complete: fold and check it inside the timed phase
	// but outside the op's timer.
	arts := plan.arts
	plan.arts = nil
	cur.shard = 0
	cur.plan = (cur.plan + 1) % len(cur.plans)
	f0 := time.Now()
	err = checkFold(plan, arts)
	s.e.tr.add("shard.merge", i, -1, f0, time.Now())
	s.mu.Lock()
	s.folds++
	s.mu.Unlock()
	return lat, err
}

// probe replays the shard's trials one sim.Run each, with the seeds
// the sweep engine derives for them, fanned out over GOMAXPROCS
// workers like the engine's trial pool; then it seals and decodes
// every cell of the shard as a /v1/sweep stream line.
func (s *sweepInst) probe(i int, p pick, root int, tr *tracer) {
	plan, spec, art := s.last.plan, s.last.spec, s.last.art
	if art == nil {
		return
	}
	sw := plan.m.Sweep
	opts, err := sw.Options(1)
	if err != nil {
		return
	}
	type trial struct {
		x int64
		t int
	}
	var trials []trial
	for _, c := range spec.Cells {
		for t := c.TrialLo; t < c.TrialHi; t++ {
			trials = append(trials, trial{c.X, t})
		}
	}
	jobs := make(chan trial)
	var wg sync.WaitGroup
	for w := 0; w < min(runtime.GOMAXPROCS(0), len(trials)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for tj := range jobs {
				input, err := plan.proto.Input(map[string]int64{sw.InputState: tj.x})
				if err != nil {
					continue
				}
				o := opts
				o.Seed = sim.DeriveSeed(sim.DeriveSeedK(sw.Seed, tj.x), tj.t)
				var res *sim.Result
				d := tr.do("sim.run", i, root, func() { res, err = sim.Run(plan.proto, input, o) })
				if err != nil {
					continue
				}
				v, ok := res.ConsensusBool()
				s.mu.Lock()
				s.agg.trialNs[sw.Scheduler] += d.Nanoseconds()
				s.agg.steps[sw.Scheduler] += int64(res.Steps)
				s.agg.trials[sw.Scheduler]++
				s.agg.probeTrials++
				if res.Converged {
					s.agg.converged++
				}
				if ok && v == (tj.x >= plan.threshold) {
					s.agg.correct++
				}
				s.mu.Unlock()
			}
		}()
	}
	for _, tj := range trials {
		jobs <- tj
	}
	close(jobs)
	wg.Wait()

	for _, pt := range art.Points {
		ca := &shard.CellArtifact{Schema: shard.ArtifactSchema, Sweep: sw, Cell: shard.Cell{X: pt.X, TrialLo: pt.TrialLo, TrialHi: pt.TrialHi}, Stats: pt.Stats}
		var line []byte
		sealed := tr.do("shard.seal", i, -1, func() { line, err = shard.SealCellLine(ca) })
		if err != nil {
			continue
		}
		decoded := tr.do("shard.decode", i, -1, func() { _, err = shard.DecodeCellLine(line) })
		summed := tr.do("canon.checksum", i, -1, func() { _, err = canon.Checksum(line, "checksum") })
		s.mu.Lock()
		s.agg.cells++
		s.agg.sealNs += sealed.Nanoseconds()
		s.agg.decodeNs += decoded.Nanoseconds()
		s.agg.sumNs += summed.Nanoseconds()
		s.agg.sumBytes += int64(len(line))
		s.mu.Unlock()
	}
}

func (s *sweepInst) finish(tr *tracer, m metrics) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.folds == 0 {
		return fmt.Errorf("no sweep completed in the timed phase")
	}
	if m == nil {
		return nil
	}
	a := s.agg
	ops := float64(max(1, len(tr.byName("op"))))
	for _, sched := range []string{"weighted", "uniform", "countbatch", "auto"} {
		if n := a.trials[sched]; n > 0 {
			m.set("sim.trial_ms."+sched, float64(a.trialNs[sched])/1e6/float64(n))
			m.set("sim.interactions."+sched, float64(a.steps[sched])/float64(n))
			if a.steps[sched] > 0 {
				m.set("sim.ns_per_interaction."+sched, float64(a.trialNs[sched])/float64(a.steps[sched]))
			}
		}
	}
	if a.probeTrials > 0 {
		m.set("sim.converged_ratio", float64(a.converged)/float64(a.probeTrials))
		m.set("sim.correct_ratio", float64(a.correct)/float64(a.probeTrials))
	}
	plans := tr.byName("shard.plan")
	m.set("shard.plan_ms", sumMs(plans)/float64(max(1, len(plans))))
	m.set("shard.run_ms", sumMs(tr.byName("op"))/ops)
	merges := tr.byName("shard.merge")
	m.set("shard.merge_partial_ms", sumMs(merges)/float64(max(1, len(merges))))
	if a.cells > 0 {
		m.set("shard.seal_us", float64(a.sealNs)/1e3/float64(a.cells))
		m.set("shard.decode_us", float64(a.decodeNs)/1e3/float64(a.cells))
	}
	if a.sumBytes > 0 {
		m.set("canon.checksum_us_per_kb", float64(a.sumNs)/1e3/(float64(a.sumBytes)/1024))
	}
	return nil
}

func (s *sweepInst) close() error { return nil }
