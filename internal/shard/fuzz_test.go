package shard

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sim"
)

// FuzzDecodeCellLine feeds arbitrary bytes to the one cell decoder
// behind every streamed delta line and on-disk cell partial. It must
// never panic, and whatever it accepts must be a well-formed cell: a
// non-empty trial range [lo, hi) with lo ≥ 0 whose statistics
// aggregate exactly hi − lo trials. Seeds: the pre-checksum golden
// partial (the legacy, schema-only path) and one sealed delta line
// (the checksummed path).
//
//	go test -run '^$' -fuzz FuzzDecodeCellLine -fuzztime 30s ./internal/shard
func FuzzDecodeCellLine(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "cell-x2-t0-6.prechecksum.golden.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	line, err := SealCellLine(&CellArtifact{
		Schema: ArtifactSchema,
		Sweep:  testSpec(),
		Cell:   Cell{X: 4, TrialLo: 2, TrialHi: 6},
		Stats:  sim.Stats{Trials: 4, Converged: 4, Correct: 4, SumSteps: 40, SumStepsSqLo: 416, MinSteps: 8, MaxSteps: 12},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(line)
	f.Fuzz(func(t *testing.T, data []byte) {
		ca, err := DecodeCellLine(data)
		if err != nil {
			return
		}
		c := ca.Cell
		if c.TrialLo < 0 || c.TrialLo >= c.TrialHi {
			t.Fatalf("accepted cell with invalid trial range [%d,%d)", c.TrialLo, c.TrialHi)
		}
		if ca.Stats.Trials != c.TrialHi-c.TrialLo {
			t.Fatalf("accepted cell [%d,%d) whose stats aggregate %d trials", c.TrialLo, c.TrialHi, ca.Stats.Trials)
		}
	})
}
