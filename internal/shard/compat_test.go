package shard

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/sim"
)

// The backward-compatibility pin: artifacts written by the
// pre-checksum builds (PRs 3–6) must keep loading. The goldens in
// testdata/ were generated by the last pre-checksum build over
// testSpec(); they have no checksum member and verify by schema
// alone.

// A pre-checksum cell partial resumes: it is loaded (not recomputed,
// observable in the counters), and the finished shard matches a fresh
// run bit for bit.
func TestLegacyCellPartialResumes(t *testing.T) {
	m, err := Plan(testSpec(), 1)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "cell-x2-t0-6.prechecksum.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cell := Cell{X: 2, TrialLo: 0, TrialHi: 6}
	if err := os.WriteFile(filepath.Join(dir, cellFileName(cell)), golden, 0o644); err != nil {
		t.Fatal(err)
	}
	res, counters, err := RunResumable(context.Background(), m, "s000", 0, dir, sim.StopRule{})
	if err != nil {
		t.Fatalf("resume over pre-checksum partial: %v", err)
	}
	if counters.CellsLoaded != 1 {
		t.Errorf("legacy cell loaded %d times, want 1 (recomputing would mask a compat break)", counters.CellsLoaded)
	}
	if counters.Quarantined != 0 {
		t.Errorf("legacy cell quarantined — checksum absence must mean schema-only verify, not corruption")
	}
	plain, err := Run(context.Background(), m, "s000", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Points, res.Points) {
		t.Errorf("resume over legacy partial differs from fresh run:\n%+v\nvs\n%+v", plain.Points, res.Points)
	}
}

// A pre-checksum shard artifact decodes, passes verification as
// legacy, and merges to exactly the fresh single-process result.
func TestLegacyShardArtifactLoads(t *testing.T) {
	path := filepath.Join("testdata", "part-s000.prechecksum.golden.json")
	a, err := ReadArtifact(path)
	if err != nil {
		t.Fatalf("pre-checksum artifact rejected: %v", err)
	}
	if a.Checksum != "" {
		t.Fatalf("golden artifact unexpectedly carries checksum %q — regenerate the test, not the golden", a.Checksum)
	}
	merged, err := Merge([]*Artifact{a})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Plan(testSpec(), 1)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Run(context.Background(), m, "s000", 0)
	if err != nil {
		t.Fatal(err)
	}
	freshMerged, err := Merge([]*Artifact{fresh})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(merged, freshMerged) {
		t.Errorf("legacy artifact merge differs from fresh run")
	}
}
