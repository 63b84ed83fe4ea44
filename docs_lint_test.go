package repro

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The package documentation of the core packages is part of the
// cross-PR contract: it is where the invariants the engines rely on
// (positional seed derivation, mergeable accumulators, arena/CSR
// ownership, deterministic parallel merge order) are written down for
// the next refactor to honor. This lint fails when a package loses
// its doc comment or the doc stops naming its invariants.
func TestPackageDocsStateInvariants(t *testing.T) {
	requirements := map[string][]string{
		// The seed contract and accumulator mergeability (PRs 1–3), plus
		// the anytime layer's sequential stopping.
		"internal/sim": {"positional", "mergeable", "DeriveSeed", "associative", "StopRule", "sequential stopping"},
		// The sharding exactness contract and the dispatch layer (PRs 3, 5),
		// plus the integrity/liveness hardening (PR 7) and the anytime
		// merge/stopping contract (PR 10): prefix-valid partial merges,
		// block-diced cell grids, and merge-time stopping canonicality.
		"internal/shard": {"positional", "mergeable", "bit-identical", "lease", "checksum", "quarantine", "heartbeat sequence", "anytime", "MergePartial", "completeness", "merge time", "pure function of (spec, block, rule)"},
		// The injectable I/O seam and the error taxonomy (PR 7).
		"internal/faultfs": {"seam", "schedule", "Transient", "fsync", "reproducibility"},
		// Config value semantics and CountSet arena ownership (PRs 1, 4).
		"internal/conf": {"InPlace", "arena", "insertion order"},
		// Arena/CSR ownership and deterministic parallel BFS (PR 4).
		"internal/petri": {"arena", "CSR", "zero-copy", "worker count"},
		// Bounded exactness and deterministic report order (PR 4).
		"internal/verify": {"exact", "enumeration order", "budget"},
		// The shared canonical-JSON/checksum convention (PR 8).
		"internal/canon": {"canonical", "CRC-32C", "sorted keys", "checksum", "json.Number"},
		// The daemon's caching, lifecycle, and admission contracts (PR 8),
		// plus the self-healing serve path (PR 9): deadlines, the per-key
		// circuit breaker, and degraded-mode readiness. PR 10 adds the
		// anytime streaming endpoint and its replay contract.
		"internal/serve": {"canonical", "content-addressed", "singleflight", "token bucket", "quarantined", "deadline", "timed_out", "circuit breaker", "Retry-After", "compute-only", "/v1/sweep", "NDJSON", "delta", "terminal merged document"},
		// Key stability is the cache-correctness contract (PR 8).
		"internal/serve/key": {"canonical", "SchemaVersion", "golden", "SHA-256"},
		// Store durability and exactly-once compute (PR 8), plus
		// degradation, the access journal, and the LRU bound (PR 9).
		"internal/serve/store": {"singleflight", "quarantined", "rename", "checksum", "fsync", "degraded", "compute-only", "journal", "LRU", "O(1)"},
	}
	for dir, wants := range requirements {
		doc := packageDoc(t, dir)
		if doc == "" {
			t.Errorf("%s: no package doc comment", dir)
			continue
		}
		if len(doc) < 300 {
			t.Errorf("%s: package doc is %d bytes — too short to document its invariants", dir, len(doc))
		}
		// Multi-word requirements must match across comment line breaks.
		flat := strings.Join(strings.Fields(doc), " ")
		for _, want := range wants {
			if !strings.Contains(flat, want) {
				t.Errorf("%s: package doc no longer mentions %q — if the invariant moved, move its documentation (and this lint) with it", dir, want)
			}
		}
	}
}

// The user-facing docs must keep pace with the user-facing surface:
// README's tool table has to name the anytime flags and the streaming
// endpoint, and DESIGN.md has to carry the "Anytime sweeps" section
// that specifies the delta schema, the completeness semantics, and
// the stopping rule the test battery pins.
func TestMarkdownDocsCoverAnytimeSurface(t *testing.T) {
	requirements := map[string][]string{
		"README.md": {
			"-ci-target", "/v1/sweep", "merge -partial", "status",
		},
		"DESIGN.md": {
			"Anytime sweeps", "trials_done", "trials_planned",
			"ci_target", "NDJSON", "stop rule", "MergePartial",
		},
	}
	for file, wants := range requirements {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		doc := strings.Join(strings.Fields(string(data)), " ")
		for _, want := range wants {
			if !strings.Contains(doc, want) {
				t.Errorf("%s no longer mentions %q — the anytime-sweep surface must stay documented", file, want)
			}
		}
	}
}

// packageDoc returns the package-level doc comment of the (single)
// package in dir, concatenated across files in case of split docs.
func packageDoc(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("%s: %v", dir, err)
	}
	fset := token.NewFileSet()
	var sb strings.Builder
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments|parser.PackageClauseOnly)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if f.Doc != nil {
			sb.WriteString(f.Doc.Text())
		}
	}
	return sb.String()
}
