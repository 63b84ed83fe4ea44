package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/sim"
)

// stopSpec is the anytime-stopping workload: the flock sweep with
// enough trials that the rule fires well before exhaustion at every
// size (empirically: sizes stop between 8 and 12 of 48 trials under a
// 5% target with an 8-trial floor).
func stopSpec() SweepSpec {
	sw := testSpec()
	sw.Trials = 48
	return sw
}

// add sums another run's counters into c.
func (c *Counters) add(o Counters) {
	c.Steals += o.Steals
	c.Retries += o.Retries
	c.Quarantined += o.Quarantined
	c.CellsLoaded += o.CellsLoaded
	c.CellsComputed += o.CellsComputed
	c.CellsStopped += o.CellsStopped
}

func stopRule() sim.StopRule { return sim.StopRule{TargetRelCI: 0.05, MinTrials: 8} }

// mergeStopped executes every shard of a manifest through the
// stop-aware resumable runner (shared partials dir, shard order) and
// merges the queue directory under the rule, returning the marshaled
// anytime document and the summed counters.
func mergeStopped(t *testing.T, m *Manifest, workers int, rule sim.StopRule) ([]byte, Counters) {
	t.Helper()
	dir := t.TempDir()
	var total Counters
	var arts []*Artifact
	for _, spec := range m.Shards {
		a, c, err := RunResumable(context.Background(), m, spec.ID, workers, dir, rule)
		if err != nil {
			t.Fatalf("RunResumable(%s): %v", spec.ID, err)
		}
		total.add(c)
		arts = append(arts, a)
	}
	sw, pts, err := CollectPartial(arts, nil)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := MergePartial(sw, pts, rule)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.MarshalIndent(merged, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return data, total
}

// The stopping determinism contract: on a block-diced plan the merged
// anytime document is byte-identical across shard cuts and worker
// counts, and identical to merging the exhaustive cell set under the
// same rule — runtime skipping changes how much work runs, never what
// is reported.
func TestStopDeterministicAcrossCutsAndWorkers(t *testing.T) {
	sw := stopSpec()
	rule := stopRule()
	model := DefaultCost(sw.Scheduler)

	// Reference: every cell computed (no runtime skipping), truncated
	// only at merge time.
	mFull, err := PlanCostBlock(sw, 1, model, 4)
	if err != nil {
		t.Fatal(err)
	}
	exhaustive := cellPoints(t, mFull)
	ref, err := MergePartial(sw, exhaustive, rule)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		t.Fatal(err)
	}

	for _, cut := range []int{1, 2, 4, 7} {
		for _, workers := range []int{1, 4} {
			m, err := PlanCostBlock(sw, cut, model, 4)
			if err != nil {
				t.Fatal(err)
			}
			got, counters := mergeStopped(t, m, workers, rule)
			if !bytes.Equal(got, want) {
				t.Fatalf("cut=%d workers=%d: stopped merge differs from exhaustive+rule reference:\n%s\nvs\n%s",
					cut, workers, got, want)
			}
			if counters.CellsStopped == 0 {
				t.Errorf("cut=%d workers=%d: no cells skipped, stopping never engaged", cut, workers)
			}
		}
	}
}

// The savings contract: under the rule, total executed trials drop
// well below the plan while every reported point is stopped, meets the
// CI target, and its mean sits within the widened CI of the exhaustive
// run.
func TestStopSavesTrialsAndMeetsTarget(t *testing.T) {
	sw := stopSpec()
	rule := stopRule()
	m, err := PlanCostBlock(sw, 2, DefaultCost(sw.Scheduler), 4)
	if err != nil {
		t.Fatal(err)
	}
	data, counters := mergeStopped(t, m, 0, rule)
	var merged AnytimeMerged
	if err := json.Unmarshal(data, &merged); err != nil {
		t.Fatal(err)
	}
	exhaustive, err := MergePartial(sw, cellPoints(t, m), sim.StopRule{})
	if err != nil {
		t.Fatal(err)
	}
	fullByX := make(map[int64]AnytimePoint, len(exhaustive.Points))
	for _, pt := range exhaustive.Points {
		fullByX[pt.X] = pt
	}
	done := 0
	for _, pt := range merged.Points {
		if !pt.Stopped {
			t.Errorf("x=%d: not stopped under a rule every size satisfies", pt.X)
			continue
		}
		if pt.TrialsPlanned != sw.Trials {
			t.Errorf("x=%d: trials_planned %d, want %d", pt.X, pt.TrialsPlanned, sw.Trials)
		}
		done += pt.TrialsDone
		norm := rule.WithDefaults()
		if !norm.Satisfied(&pt.Stats) {
			t.Errorf("x=%d: reported stopped but rule unsatisfied (relCI %.4f of mean %.2f)",
				pt.X, pt.Stats.HalfCI95Steps(), pt.Stats.MeanSteps())
		}
		full := fullByX[pt.X]
		gap := pt.Stats.MeanSteps() - full.Stats.MeanSteps()
		if gap < 0 {
			gap = -gap
		}
		if width := pt.Stats.HalfCI95Steps() + full.Stats.HalfCI95Steps(); gap > width {
			t.Errorf("x=%d: stopped mean %.2f vs exhaustive %.2f exceeds widened CI %.2f",
				pt.X, pt.Stats.MeanSteps(), full.Stats.MeanSteps(), width)
		}
	}
	planned := len(sw.Sizes) * sw.Trials
	if done*2 >= planned {
		t.Errorf("stopping saved too little: %d of %d trials executed", done, planned)
	}
	if counters.CellsStopped == 0 {
		t.Error("no cells skipped at runtime")
	}
	if merged.Partial {
		t.Error("fully stopped sweep still marked partial")
	}
}

// A shard dispatched with a Stop rule skips converged cells and its
// queue directory merges to the same document as the in-process
// runner's.
func TestDispatchStop(t *testing.T) {
	sw := stopSpec()
	rule := stopRule()
	m, err := PlanCostBlock(sw, 2, DefaultCost(sw.Scheduler), 4)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := mergeStopped(t, m, 0, rule)

	dir := t.TempDir()
	res, err := Dispatch(context.Background(), m, DispatchOptions{Dir: dir, Stop: rule})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.CellsStopped == 0 {
		t.Error("dispatch with a stop rule skipped nothing")
	}
	arts, err := CollectArtifacts(dir, m)
	if err != nil {
		t.Fatal(err)
	}
	wsw, pts, err := CollectPartial(arts, nil)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := MergePartial(wsw, pts, rule)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(merged, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("dispatched stopped merge differs from in-process runner's:\n%s\nvs\n%s", got, want)
	}
}
