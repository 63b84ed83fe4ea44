package shard

import (
	"context"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

// geometricSpec is the acceptance-criteria workload: a sweep over
// x ∈ {2^10, 2^11, ..., 2^20}, where a linear cut makes the top-size
// shard the straggler of the whole sweep.
func geometricSpec() SweepSpec {
	sw := testSpec()
	sw.Sizes = nil
	for k := 10; k <= 20; k++ {
		sw.Sizes = append(sw.Sizes, int64(1)<<k)
	}
	sw.Trials = 8
	return sw
}

// PlanCost under UniformCost must reproduce Plan exactly — same cuts,
// same ids, same bytes — so the legacy planner is one model of the
// weighted one, not a separate code path.
func TestPlanCostUniformMatchesPlan(t *testing.T) {
	for _, sw := range []SweepSpec{testSpec(), geometricSpec()} {
		for _, shards := range []int{1, 2, 3, 5, 7, 24, 1000} {
			a, err := Plan(sw, shards)
			if err != nil {
				t.Fatalf("Plan(%d): %v", shards, err)
			}
			b, err := PlanCost(sw, shards, UniformCost{})
			if err != nil {
				t.Fatalf("PlanCost(%d, uniform): %v", shards, err)
			}
			ab, _ := json.Marshal(a)
			bb, _ := json.Marshal(b)
			if string(ab) != string(bb) {
				t.Errorf("shards=%d: PlanCost(uniform) differs from Plan:\n%s\nvs\n%s", shards, ab, bb)
			}
		}
	}
}

// Cost-weighted plans must still tile the grid exactly and validate,
// for every model and awkward shard counts.
func TestPlanCostTilesGrid(t *testing.T) {
	for _, model := range []CostModel{UniformCost{}, LinearCost{}, LogCost{}} {
		for _, sw := range []SweepSpec{testSpec(), geometricSpec()} {
			for _, shards := range []int{1, 2, 3, 4, 7, 11, 40, 10000} {
				m, err := PlanCost(sw, shards, model)
				if err != nil {
					t.Fatalf("PlanCost(%d, %s): %v", shards, model.Name(), err)
				}
				if err := m.Validate(); err != nil {
					t.Errorf("PlanCost(%d, %s) does not tile the grid: %v", shards, model.Name(), err)
				}
				if len(m.Shards) > shards {
					t.Errorf("PlanCost(%d, %s) produced %d shards", shards, model.Name(), len(m.Shards))
				}
			}
		}
	}
}

// The headline balance property (acceptance criteria): on the
// geometric sweep the cost-weighted plan's max/mean cost imbalance is
// strictly below the linear-cut plan's, and near-optimal in absolute
// terms. Scored with the workload's own cost model — the model is the
// wall-time proxy the criterion names.
func TestPlanCostReducesImbalance(t *testing.T) {
	sw := geometricSpec()
	model := LinearCost{}
	for _, shards := range []int{2, 4, 8} {
		linear, err := Plan(sw, shards)
		if err != nil {
			t.Fatalf("Plan(%d): %v", shards, err)
		}
		weighted, err := PlanCost(sw, shards, model)
		if err != nil {
			t.Fatalf("PlanCost(%d): %v", shards, err)
		}
		li := linear.Imbalance(model)
		wi := weighted.Imbalance(model)
		if wi >= li {
			t.Errorf("shards=%d: weighted imbalance %.3f not below linear-cut %.3f", shards, wi, li)
		}
		// The largest single cell is 2^20 of ~2^21 total cost, so for
		// shards ≤ 2 total/shards dominates and the plan can stay within
		// ~35% of perfect balance; the linear cut is off by multiples.
		if wi > 1.35 {
			t.Errorf("shards=%d: weighted imbalance %.3f, want ≤ 1.35", shards, wi)
		}
		// max/mean is capped at the shard count, so at 2 shards even a
		// maximally skewed linear cut scores just under 2.
		if li < 1.5 {
			t.Errorf("shards=%d: linear-cut imbalance %.3f unexpectedly low — workload no longer skewed?", shards, li)
		}
	}
}

// A cost-weighted manifest records its model name; the uniform model
// (and hence Plan) leaves the field empty so legacy manifest bytes are
// unchanged.
func TestPlanCostStampsModel(t *testing.T) {
	sw := testSpec()
	m, err := PlanCost(sw, 2, LinearCost{})
	if err != nil {
		t.Fatal(err)
	}
	if m.CostModel != "linear" {
		t.Errorf("CostModel = %q, want linear", m.CostModel)
	}
	u, err := Plan(sw, 2)
	if err != nil {
		t.Fatal(err)
	}
	if u.CostModel != "" {
		t.Errorf("uniform plan stamps CostModel %q, want empty", u.CostModel)
	}
	data, _ := json.Marshal(u)
	var raw map[string]any
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	if _, ok := raw["cost_model"]; ok {
		t.Error("uniform manifest JSON carries cost_model key")
	}
}

// Cost-weighted plans run and merge exactly like linear-cut ones: the
// shard boundaries move, the merged document must not.
func TestPlanCostMergeMatchesPlan(t *testing.T) {
	sw := testSpec()
	runPlan := func(m *Manifest) *AnytimeMerged {
		t.Helper()
		arts := make([]*Artifact, 0, len(m.Shards))
		for _, spec := range m.Shards {
			a, err := Run(context.Background(), m, spec.ID, 0)
			if err != nil {
				t.Fatalf("Run(%s): %v", spec.ID, err)
			}
			arts = append(arts, a)
		}
		merged, err := Merge(arts)
		if err != nil {
			t.Fatalf("Merge: %v", err)
		}
		return merged
	}
	linear, err := Plan(sw, 3)
	if err != nil {
		t.Fatal(err)
	}
	weighted, err := PlanCost(sw, 3, LinearCost{})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(linear.Shards, weighted.Shards) {
		t.Fatal("test vacuous: weighted cut equals linear cut on the skewed spec")
	}
	if !reflect.DeepEqual(runPlan(linear), runPlan(weighted)) {
		t.Error("merged result depends on the plan's cost model")
	}
}

func TestCostByName(t *testing.T) {
	for _, tc := range []struct {
		name, scheduler, want string
	}{
		{"", "", "linear"},
		{"auto", "weighted", "linear"},
		{"", "countbatch", "log"},
		{"auto", "countbatch", "log"},
		{"uniform", "countbatch", "uniform"},
		{"linear", "countbatch", "linear"},
		{"log", "", "log"},
	} {
		m, err := CostByName(tc.name, tc.scheduler)
		if err != nil {
			t.Fatalf("CostByName(%q, %q): %v", tc.name, tc.scheduler, err)
		}
		if m.Name() != tc.want {
			t.Errorf("CostByName(%q, %q) = %s, want %s", tc.name, tc.scheduler, m.Name(), tc.want)
		}
	}
	if _, err := CostByName("nope", ""); err == nil {
		t.Error("unknown cost model accepted")
	}
}

// A sweep whose total cost would wrap int64 is rejected at plan time
// instead of silently producing a degenerate plan.
func TestPlanCostOverflow(t *testing.T) {
	sw := testSpec()
	sw.Sizes = []int64{1 << 62}
	sw.Trials = 4 // 4 · 2^62 wraps int64
	if _, err := PlanCost(sw, 2, LinearCost{}); err == nil || !strings.Contains(err.Error(), "overflow") {
		t.Errorf("overflowing cost not rejected: %v", err)
	}
	// Spec.Cost saturates rather than wrapping when scored under a
	// hotter model than the plan used.
	s := Spec{Cells: []Cell{{X: 1 << 62, TrialLo: 0, TrialHi: 4}}}
	if got := s.Cost(LinearCost{}); got != math.MaxInt64 {
		t.Errorf("Cost wrapped to %d, want MaxInt64 saturation", got)
	}
}

// BenchmarkPlanImbalance pins the acceptance-criteria comparison as a
// benchmark metric: linear-vs-weighted max/mean cost imbalance on the
// x ∈ {2^10..2^20} sweep at 4 shards, alongside planning throughput.
func BenchmarkPlanImbalance(b *testing.B) {
	sw := geometricSpec()
	model := LinearCost{}
	var li, wi float64
	for i := 0; i < b.N; i++ {
		linear, err := Plan(sw, 4)
		if err != nil {
			b.Fatal(err)
		}
		weighted, err := PlanCost(sw, 4, model)
		if err != nil {
			b.Fatal(err)
		}
		li = linear.Imbalance(model)
		wi = weighted.Imbalance(model)
	}
	b.ReportMetric(li, "linear-imbalance")
	b.ReportMetric(wi, "weighted-imbalance")
	if wi >= li {
		b.Fatalf("weighted imbalance %.3f not below linear-cut %.3f", wi, li)
	}
}
