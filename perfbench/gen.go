package main

import "math/rand/v2"

// Every workload mixes a common class and a heavy class. Ops come in
// blocks of blockLen: commonKinds common ops (one of each kind) and
// one heavy op, in a seeded order. Heavy ops cycle through the
// heavyKinds kinds, each cycle in a seeded order. The stratification
// keeps the mix the same for every seed, so the seed changes which
// inputs run and in what order, not how much of each kind there is.
//
// The kinds are ordered by cost, and the counts are chosen so that
// both reported percentiles land in the middle of one kind, away from
// the gap between two kinds, where a few ops more or less would move
// the percentile by the width of the gap:
//   - p50 is common-class rank 0.625, the middle of common kind 2
//     (ranks 0.5–0.75);
//   - p90 is heavy-class rank 0.5, the middle of heavy kind 1
//     (ranks 1/3–2/3).
const (
	commonKinds = 4
	heavyKinds  = 3
	blockLen    = commonKinds + 1
)

// pick is one generated op: its class, its kind within the class and
// a seeded variant number the workload maps to concrete inputs.
type pick struct {
	Heavy   bool
	Kind    int
	Variant uint64
}

// genOp returns op i of the op list for seed. It is a pure function of
// (seed, i), so the list is unbounded and any client may take any
// index.
func genOp(seed int64, i int) pick {
	b := uint64(i / blockLen)
	r := rand.New(rand.NewPCG(uint64(seed), b))
	slot := r.Perm(blockLen)[i%blockLen]
	variant := rand.New(rand.NewPCG(uint64(seed), 1<<63|uint64(i))).Uint64()
	if slot < commonKinds {
		return pick{Kind: slot, Variant: variant}
	}
	cycle := b / heavyKinds
	rc := rand.New(rand.NewPCG(uint64(seed), 1<<62|cycle))
	return pick{Heavy: true, Kind: rc.Perm(heavyKinds)[b%heavyKinds], Variant: variant}
}
