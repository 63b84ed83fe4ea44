package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/core"
)

// SweepPoint is one population size's aggregated convergence result.
type SweepPoint struct {
	X     int64 `json:"x"`
	Stats Stats `json:"stats"`
}

// Sweep runs every trial of every population size in xs and reports
// per-size statistics: SweepRange over the full trial range.
func Sweep(ctx context.Context, p *core.Protocol, inputState string, xs []int64, expected func(x int64) bool, trials int, opts Options) ([]SweepPoint, error) {
	if trials <= 0 {
		return nil, errors.New("sim: trials must be positive")
	}
	return SweepRange(ctx, p, inputState, xs, expected, 0, trials, opts)
}

// SweepRange runs the trial range [trialLo, trialHi) of each population
// size in xs and reports per-size partial statistics. The expected
// predicate value for each x is computed by expected. Each size's base
// seed is derived from (opts.Seed, x) alone — independent of which
// sizes and trial ranges this call covers — so a sweep sharded across
// processes by size and/or trial block produces partial SweepPoints
// that merge into exactly the single-process Sweep result.
//
// Parallelism is two-level: points fan out to a bounded pool (so sweeps
// with few trials per point still use every core) and each point's
// RunRange fans its trials out to workers that reuse one engine State
// each. Results are ordered like xs and deterministic in opts.Seed
// regardless of scheduling. Cancelling ctx stops all workers promptly
// and returns ctx.Err().
func SweepRange(ctx context.Context, p *core.Protocol, inputState string, xs []int64, expected func(x int64) bool, trialLo, trialHi int, opts Options) ([]SweepPoint, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(xs) == 0 {
		return nil, errors.New("sim: empty sweep")
	}
	out := make([]SweepPoint, len(xs))
	errs := make([]error, len(xs))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(xs) {
		workers = len(xs)
	}
	// Keep the two-level pool product at ~GOMAXPROCS unless the caller
	// pinned Options.Workers explicitly: the outer pool takes one
	// worker per point (capped at GOMAXPROCS above), and each
	// point-worker's RunRange gets the ceiling share of trial-workers,
	// so the product covers every core. Ceiling, not floor: the floor
	// division starved the inner pools to zero whenever the outer pool
	// took every core (g points on g cores → g/g…, but also 2g points
	// capped at g workers → g/g = 1 is correct while g+1 points capped
	// at g gave 0 before the old clamp kicked in — and any remainder
	// under-used the machine).
	inner := opts
	if inner.Workers <= 0 {
		g := runtime.GOMAXPROCS(0)
		inner.Workers = (g + workers - 1) / workers
	}
	done := ctx.Done()
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobs {
				x := xs[idx]
				input, err := p.Input(map[string]int64{inputState: x})
				if err != nil {
					errs[idx] = err
					continue
				}
				o := inner
				// Give each size its own hashed base seed: deterministic,
				// and uncorrelated across nearby seeds and sizes.
				o.Seed = DeriveSeedK(opts.Seed, x)
				stats, err := RunRange(ctx, p, input, expected(x), trialLo, trialHi, o)
				if err != nil {
					errs[idx] = err
					continue
				}
				out[idx] = SweepPoint{X: x, Stats: *stats}
			}
		}()
	}
feed:
	for idx := range xs {
		select {
		case jobs <- idx:
		case <-done:
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for idx, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("sweep x=%d: %w", xs[idx], err)
		}
	}
	return out, nil
}
