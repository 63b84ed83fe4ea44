package faultfs

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// ErrRetryExhausted marks an operation that still failed after the
// bounded transient-error retry budget: the filesystem is not merely
// hiccuping. Callers branch on it to enter their degraded mode (the
// serve store stops persisting, the shard dispatcher gives up)
// instead of spinning forever.
var ErrRetryExhausted = errors.New("faultfs: I/O failed after retries")

// Retrier is the bounded-retry policy over the Transient taxonomy:
// transient errors are absorbed with exponential backoff plus full
// jitter up to the attempt budget, permanent errors return
// immediately. It lives next to the seam it keys on and is the one
// retry policy of the repo: the serve store and the shard queue both
// run their I/O through it. A Retrier is not safe for concurrent use;
// give each goroutine its own (the jitter state is a bare splitmix64
// cursor).
type Retrier struct {
	// Attempts is the total number of tries per operation (minimum 1;
	// 0 means the default 5).
	Attempts int
	// Base is the first backoff delay, doubling per retry up to
	// 1024×Base (0 means 20ms).
	Base time.Duration
	// Seed feeds the jitter stream; the zero seed is valid. Chaos
	// tests pin it so a failing schedule replays exactly.
	Seed uint64
	// Count, when non-nil, is incremented once per absorbed transient
	// error — the caller's retry telemetry.
	Count *atomic.Int64

	rng uint64
}

func (r *Retrier) attempts() int {
	if r.Attempts <= 0 {
		return 5
	}
	return r.Attempts
}

func (r *Retrier) base() time.Duration {
	if r.Base <= 0 {
		return 20 * time.Millisecond
	}
	return r.Base
}

// jitter draws a full-jitter delay: uniform in [0, d), floored at 1ms
// so exhausted-entropy draws cannot busy-spin. d must be positive.
func (r *Retrier) jitter(d time.Duration) time.Duration {
	if r.rng == 0 {
		r.rng = r.Seed | 1
	}
	j := time.Duration(splitmix64(&r.rng) % uint64(d))
	if j < time.Millisecond {
		j = time.Millisecond
	}
	return j
}

// Sleep waits a full-jitter delay drawn from [0, window) — the backoff
// step Do takes between attempts, exported for callers that back off
// on something other than an error (an idle queue poll) — or until
// ctx is cancelled, returning the context's error. window must be
// positive.
func (r *Retrier) Sleep(ctx context.Context, window time.Duration) error {
	t := time.NewTimer(r.jitter(window))
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Do runs f, absorbing transient errors (Transient) with exponential
// backoff plus full jitter, up to the attempt budget. Permanent
// errors return immediately; an exhausted budget returns the last
// error wrapped in ErrRetryExhausted; ctx cancellation interrupts a
// backoff sleep and returns the context's error.
func (r *Retrier) Do(ctx context.Context, op string, f func() error) error {
	delay := r.base()
	cap := 1024 * delay
	for attempt := 1; ; attempt++ {
		err := f()
		if err == nil || !Transient(err) {
			return err
		}
		if attempt >= r.attempts() {
			return fmt.Errorf("%w: %s: %w", ErrRetryExhausted, op, err)
		}
		if r.Count != nil {
			r.Count.Add(1)
		}
		if err := r.Sleep(ctx, delay); err != nil {
			return err
		}
		if delay < cap {
			delay *= 2
		}
	}
}
