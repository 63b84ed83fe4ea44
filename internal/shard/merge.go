package shard

import (
	"fmt"
	"sort"

	"repro/internal/sim"
)

// Merge is the strict fan-in: the anytime fold (CollectPartial +
// MergePartial, no stop rule) plus a complete-tiling check. Every
// artifact must carry a known schema version and the same sweep spec,
// and for every size the partial trial ranges must tile [0, Trials)
// exactly — overlapping shards (a shard run twice, or two plans
// mixed), duplicated artifacts and missing shards are reported by
// size and range rather than silently mis-aggregated. Because every
// point is then complete, the document marshals exactly like the
// single-process sim.Sweep result {schema, sweep, points}, point for
// point and bit for bit. It deliberately carries no host metadata —
// the merged document is a pure function of the sweep spec, so two
// merges of differently-sharded runs are byte-identical.
func Merge(arts []*Artifact) (*AnytimeMerged, error) {
	sw, pts, err := CollectPartial(arts, nil)
	if err != nil {
		return nil, err
	}
	if err := sw.Validate(); err != nil {
		return nil, err
	}
	byX := make(map[int64][]Cell)
	for _, pt := range pts {
		byX[pt.X] = append(byX[pt.X], Cell{X: pt.X, TrialLo: pt.TrialLo, TrialHi: pt.TrialHi})
	}
	for _, x := range sw.Sizes {
		if err := checkTiling(x, byX[x], sw.Trials); err != nil {
			return nil, err
		}
	}
	return MergePartial(sw, pts, sim.StopRule{})
}

// checkTiling verifies that the cells' trial ranges partition
// [0, trials) exactly: no overlap, no gap, no out-of-bounds range.
// It sorts cells in place.
func checkTiling(x int64, cells []Cell, trials int) error {
	if len(cells) == 0 {
		return fmt.Errorf("shard: size %d has no partial results", x)
	}
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].TrialLo != cells[j].TrialLo {
			return cells[i].TrialLo < cells[j].TrialLo
		}
		return cells[i].TrialHi < cells[j].TrialHi
	})
	next := 0
	for _, c := range cells {
		if c.TrialLo < 0 || c.TrialHi > trials || c.TrialLo >= c.TrialHi {
			return fmt.Errorf("shard: size %d has invalid trial range [%d,%d) of %d trials",
				x, c.TrialLo, c.TrialHi, trials)
		}
		if c.TrialLo < next {
			return fmt.Errorf("shard: size %d trials [%d,%d) overlap an earlier range ending at %d (shard run twice, or plans mixed?)",
				x, c.TrialLo, c.TrialHi, next)
		}
		if c.TrialLo > next {
			return fmt.Errorf("shard: size %d missing trials [%d,%d)", x, next, c.TrialLo)
		}
		next = c.TrialHi
	}
	if next != trials {
		return fmt.Errorf("shard: size %d missing trials [%d,%d)", x, next, trials)
	}
	return nil
}
