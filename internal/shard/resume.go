package shard

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"sort"

	"repro/internal/hostmeta"
	"repro/internal/sim"
)

// CellArtifact is the resumable runner's unit of persisted progress:
// one cell's aggregated statistics, self-describing like the shard
// Artifact (it echoes the full sweep spec, so a partials directory
// can be checked against the plan it belongs to). Cell keys
// (x, trial range) are globally unique within a plan — cells tile the
// (size × trial) grid — so partials carry no shard id and survive
// re-sharding: a cell computed under a 4-shard plan resumes a 7-shard
// plan of the same sweep.
type CellArtifact struct {
	Schema int           `json:"schema"`
	Sweep  SweepSpec     `json:"sweep"`
	Cell   Cell          `json:"cell"`
	Stats  sim.Stats     `json:"stats"`
	Host   hostmeta.Meta `json:"host"`
	// Checksum is the content checksum ("crc32c:…") over the
	// document's canonical form; absent in pre-checksum artifacts,
	// which load on schema checks alone.
	Checksum string `json:"checksum,omitempty"`
}

// cellFileName is the canonical partial file name for a cell. The
// name is a pure function of the cell so concurrent attempts at the
// same cell collide on one path and the atomic rename makes the last
// writer win with a complete document either way.
func cellFileName(c Cell) string {
	return fmt.Sprintf("cell-x%d-t%d-%d.json", c.X, c.TrialLo, c.TrialHi)
}

// parseCell decodes one cell partial the runner found at path and
// checks it against the plan. Corruption — anything decodeCell
// rejects as corrupt, or a cell that is not the one the file name
// promises — comes back as *corruptError, telling the caller to
// quarantine and recompute (always safe: cells are pure functions of
// the sweep spec). A partial from a different sweep or an unknown
// schema stays a loud error: recomputing would mask an operator mixup
// (two plans sharing a partials dir) or a build mismatch until merge
// time or beyond.
func parseCell(data []byte, path string, sw SweepSpec, want Cell) (*CellArtifact, error) {
	ca, err := decodeCell(data, path)
	if err != nil {
		return nil, err
	}
	if !reflect.DeepEqual(ca.Sweep, sw) {
		return nil, fmt.Errorf("%s: cell belongs to a different sweep (partials dir shared between plans?)", path)
	}
	if ca.Cell != want {
		return nil, &corruptError{reason: fmt.Sprintf("%s: cell is %+v, file name promises %+v", path, ca.Cell, want)}
	}
	return ca, nil
}

// RunResumable is Run with per-cell persistence in dir: cells whose
// partial artifacts already exist (and verify) are loaded instead of
// recomputed, and every freshly computed cell is persisted (sealed
// with a content checksum, fsynced, atomic rename) the moment it
// completes — a worker killed mid-shard loses at most the one cell in
// flight, and the next attempt (same process or a dispatcher retry on
// another host) picks up from the surviving cells. A corrupt partial
// (torn write, bit rot, checksum mismatch) is quarantined to
// corrupt/ with a reason file and its cell recomputed. Cells execute
// one at a time (trials still fan out to the worker pool) so
// persistence granularity really is one cell; the grouped multi-size
// parallelism of Run is traded away for it.
//
// rule is the anytime sequential-stopping rule; the zero rule runs
// every cell. Under an enabled rule, before computing a cell the
// runner asks MergePartial whether the point's gap-free prefix in the
// partials directory (cells other shards persisted count too) already
// stops at an earlier boundary, and skips the cell if so — purely an
// optimization: MergePartial truncates at the same canonical boundary
// whether or not the post-stop cells exist, so racing workers that
// compute a few extra cells never change the reported document.
//
// Positional seeds make resumed and fresh cells bit-identical, so the
// assembled Artifact carries exactly the Points of an uninterrupted
// Run (the Host stamp is the finishing process's). The returned
// Counters report loaded/computed/stopped cells, quarantines and
// transient retries.
func RunResumable(ctx context.Context, m *Manifest, shardID string, workers int, dir string, rule sim.StopRule) (*Artifact, Counters, error) {
	var c Counters
	env := newQueueEnv(nil, 0, 0, &c)
	art, err := runResumable(ctx, m, shardID, workers, dir, 0, env, rule)
	return art, c, err
}

// runResumable implements RunResumable over an explicit queue
// environment (filesystem seam, retry policy, counters); failAfter >
// 0 injects a fault for kill/resume tests and the CI dispatcher
// drill: the runner returns errInjectedFailure after persisting that
// many fresh cells, leaving the partials exactly as a killed process
// would.
func runResumable(ctx context.Context, m *Manifest, shardID string, workers int, dir string, failAfter int, env *queueEnv, rule sim.StopRule) (*Artifact, error) {
	art, sweep, err := prepare(m, shardID, workers)
	if err != nil {
		return nil, err
	}
	if err := env.retry(ctx, "mkdir partials", func() error {
		return env.fsys.MkdirAll(dir, 0o755)
	}); err != nil {
		return nil, err
	}
	sw, spec := m.Sweep, &art.Shard
	// Prefix context for sequential stopping: the full per-size cell
	// grid (all shards, trial order) and the stats this run has seen,
	// keyed by cell. Other shards' cells are read from the partials
	// dir on demand — best effort, since a missing or unreadable
	// prefix merely means the cell is computed rather than skipped.
	rule = rule.WithDefaults()
	var grid map[int64][]Cell
	known := make(map[Cell]sim.Stats)
	if rule.Enabled() {
		grid = make(map[int64][]Cell, len(sw.Sizes))
		for _, s := range m.Shards {
			for _, c := range s.Cells {
				grid[c.X] = append(grid[c.X], c)
			}
		}
		for _, cs := range grid {
			sortCellsByTrialLo(cs)
		}
	}
	record := func(c Cell, st sim.Stats) {
		known[c] = st
		art.Points = append(art.Points, PartialPoint{
			X: c.X, TrialLo: c.TrialLo, TrialHi: c.TrialHi, Stats: st,
		})
	}
	fresh := 0
	for _, c := range spec.Cells {
		path := filepath.Join(dir, cellFileName(c))
		data, err := env.readRetry(ctx, path)
		if err != nil {
			return nil, err
		}
		if data != nil {
			ca, perr := parseCell(data, path, sw, c)
			var corrupt *corruptError
			switch {
			case perr == nil:
				record(c, ca.Stats)
				env.counters.CellsLoaded++
				continue
			case errors.As(perr, &corrupt):
				if qerr := env.quarantine(ctx, path, corrupt.reason); qerr != nil {
					return nil, qerr
				}
				// Fall through: the cell is recomputed.
			default:
				return nil, perr
			}
		}
		if rule.Enabled() && prefixSatisfied(ctx, env, dir, sw, grid[c.X], c, known, rule) {
			env.counters.CellsStopped++
			continue
		}
		points, err := sweep(ctx, []int64{c.X}, c.TrialLo, c.TrialHi)
		if err != nil {
			return nil, fmt.Errorf("shard %s cell x=%d trials [%d,%d): %w", shardID, c.X, c.TrialLo, c.TrialHi, err)
		}
		ca := CellArtifact{Schema: ArtifactSchema, Sweep: sw, Cell: c, Stats: points[0].Stats, Host: art.Host}
		if err := env.writeSealedRetry(ctx, path, &ca); err != nil {
			return nil, err
		}
		record(c, points[0].Stats)
		env.counters.CellsComputed++
		fresh++
		if failAfter > 0 && fresh >= failAfter {
			return nil, fmt.Errorf("shard %s: %w after %d cells", shardID, errInjectedFailure, fresh)
		}
	}
	return art, nil
}

// sortCellsByTrialLo orders one size's cells in trial order, the
// order MergePartial folds them in.
func sortCellsByTrialLo(cs []Cell) {
	sort.Slice(cs, func(i, j int) bool { return cs[i].TrialLo < cs[j].TrialLo })
}

// prefixSatisfied reports whether the stop rule is already satisfied
// at some cell boundary strictly before c.TrialLo. It gathers the
// point's cells below c — held by this run (known) or persisted by
// other shards in dir — up to the first one it cannot read, and asks
// MergePartial whether that prefix stops. A hole (a cell not yet
// computed, unreadable, or corrupt) ends the gathering: computing a
// post-stop cell is always safe (MergePartial truncates at the
// canonical boundary), whereas skipping on incomplete evidence could
// stall a sweep. Quarantining an observed-corrupt prefix cell is left
// to the shard that owns it.
func prefixSatisfied(ctx context.Context, env *queueEnv, dir string, sw SweepSpec, gridX []Cell, c Cell, known map[Cell]sim.Stats, rule sim.StopRule) bool {
	var prefix []PartialPoint
	for _, pc := range gridX {
		if pc.TrialHi > c.TrialLo {
			break
		}
		st, ok := known[pc]
		if !ok {
			path := filepath.Join(dir, cellFileName(pc))
			data, err := env.readRetry(ctx, path)
			if err != nil || data == nil {
				break
			}
			ca, err := parseCell(data, path, sw, pc)
			if err != nil {
				break
			}
			st = ca.Stats
			known[pc] = st
		}
		prefix = append(prefix, PartialPoint{X: pc.X, TrialLo: pc.TrialLo, TrialHi: pc.TrialHi, Stats: st})
	}
	merged, err := MergePartial(sw, prefix, rule)
	if err != nil {
		return false
	}
	for _, pt := range merged.Points {
		if pt.X == c.X {
			return pt.Stopped
		}
	}
	return false
}

// errInjectedFailure marks a deliberately simulated worker death
// (ppsweep dispatch -fail-after-cells, kill/resume tests).
var errInjectedFailure = errors.New("injected worker failure")
