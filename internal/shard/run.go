package shard

import (
	"context"
	"fmt"

	"repro/internal/hostmeta"
	"repro/internal/sim"
)

// PartialPoint is one cell's aggregated result: the partial statistics
// of trials [TrialLo, TrialHi) at size X.
type PartialPoint struct {
	X       int64     `json:"x"`
	TrialLo int       `json:"trial_lo"`
	TrialHi int       `json:"trial_hi"`
	Stats   sim.Stats `json:"stats"`
}

// Artifact is one shard's partial-result document. It echoes the full
// sweep spec so Merge can verify that artifacts gathered from many
// hosts belong to the same sweep, and stamps the producing host's
// metadata (same conventions as the BENCH_*.json timing artifacts).
type Artifact struct {
	Schema int            `json:"schema"`
	Sweep  SweepSpec      `json:"sweep"`
	Shard  Spec           `json:"shard"`
	Points []PartialPoint `json:"points"`
	Host   hostmeta.Meta  `json:"host"`
	// Checksum is the content checksum ("crc32c:…") over the
	// document's canonical form; absent in pre-checksum artifacts,
	// which load on schema checks alone.
	Checksum string `json:"checksum,omitempty"`
}

// Run executes one shard of the manifest and returns its artifact.
// workers bounds each point's trial pool (0 = GOMAXPROCS). Cancelling
// ctx stops the underlying sim workers promptly and returns ctx.Err().
//
// Consecutive cells sharing a trial range execute as one SweepRange
// call, so a shard covering several whole sizes gets the sweep
// engine's two-level point/trial parallelism.
func Run(ctx context.Context, m *Manifest, shardID string, workers int) (*Artifact, error) {
	art, sweep, err := prepare(m, shardID, workers)
	if err != nil {
		return nil, err
	}
	spec := &art.Shard
	for g := 0; g < len(spec.Cells); {
		// Group consecutive cells with the same trial range.
		h := g + 1
		for h < len(spec.Cells) &&
			spec.Cells[h].TrialLo == spec.Cells[g].TrialLo &&
			spec.Cells[h].TrialHi == spec.Cells[g].TrialHi {
			h++
		}
		xs := make([]int64, 0, h-g)
		for _, c := range spec.Cells[g:h] {
			xs = append(xs, c.X)
		}
		lo, hi := spec.Cells[g].TrialLo, spec.Cells[g].TrialHi
		points, err := sweep(ctx, xs, lo, hi)
		if err != nil {
			return nil, fmt.Errorf("shard %s trials [%d,%d): %w", shardID, lo, hi, err)
		}
		for _, pt := range points {
			art.Points = append(art.Points, PartialPoint{
				X: pt.X, TrialLo: lo, TrialHi: hi, Stats: pt.Stats,
			})
		}
		g = h
	}
	return art, nil
}

// prepare checks the manifest schema and resolves the shard. It
// returns the artifact to fill and a runner for trial ranges of the
// sweep's sizes: the setup Run and RunResumable share.
func prepare(m *Manifest, shardID string, workers int) (*Artifact, func(ctx context.Context, xs []int64, lo, hi int) ([]sim.SweepPoint, error), error) {
	if m.Schema != ManifestSchema {
		return nil, nil, fmt.Errorf("shard: manifest schema %d, this build understands %d", m.Schema, ManifestSchema)
	}
	spec, err := m.Shard(shardID)
	if err != nil {
		return nil, nil, err
	}
	sw := m.Sweep
	p, n, err := sw.Build()
	if err != nil {
		return nil, nil, err
	}
	opts, err := sw.Options(workers)
	if err != nil {
		return nil, nil, err
	}
	expected := func(x int64) bool { return x >= n }
	sweep := func(ctx context.Context, xs []int64, lo, hi int) ([]sim.SweepPoint, error) {
		return sim.SweepRange(ctx, p, sw.InputState, xs, expected, lo, hi, opts)
	}
	return &Artifact{Schema: ArtifactSchema, Sweep: sw, Shard: *spec, Host: hostmeta.Collect()}, sweep, nil
}
