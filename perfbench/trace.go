package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's
// own code around the public function it calls. Spans of one op share
// the op id; parent is the id of the span that caused this one (-1 for
// an op's root).
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Op     int           `json:"op"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps every span in memory until the run ends. A nil *tracer
// records nothing, so untraced code paths call it unconditionally.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its id.
func (t *tracer) add(name string, op, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: start.Sub(t.t0), End: end.Sub(t.t0)})
	return id
}

// do runs f inside a span and returns the span's duration.
func (t *tracer) do(name string, op, parent int, f func()) time.Duration {
	start := time.Now()
	f()
	end := time.Now()
	t.add(name, op, parent, start, end)
	return end.Sub(start)
}

// covered returns how much of [lo, hi] the given spans cover, counting
// overlapping spans once: a layer's parallel calls cover wall time, not
// the sum of their durations.
func covered(spans []span, lo, hi time.Duration) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a <= cur.b:
			cur.b = max(cur.b, v.b)
		default:
			total += cur.b - cur.a
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b - cur.a
	}
	return total
}

// shiftedCover returns how much of an op of duration d its layer spans
// cover. Probe spans replay the op's calls after the op ran, so they
// are shifted to start where the op started.
func shiftedCover(kids []span, d time.Duration) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	first := kids[0].Start
	for _, k := range kids {
		first = min(first, k.Start)
	}
	shifted := make([]span, len(kids))
	for j, k := range kids {
		k.Start, k.End = k.Start-first, k.End-first
		shifted[j] = k
	}
	return covered(shifted, 0, d)
}

// byName returns the spans with the given name.
func (t *tracer) byName(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// sumMs is the total duration of the spans, in milliseconds.
func sumMs(spans []span) float64 {
	var d time.Duration
	for _, s := range spans {
		d += s.dur()
	}
	return ms(d)
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
