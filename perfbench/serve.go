package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/canon"
	"repro/internal/faultfs"
	"repro/internal/registry"
	"repro/internal/serve"
	"repro/internal/serve/key"
	"repro/internal/serve/store"
	"repro/internal/sim"
)

// The serve workload's working set, prewarmed in set-up: warm hits on
// these keys are the common class, one kind per endpoint.
const (
	wsSimulate = 160
	wsVerify   = 24
	wsBounds   = 160
	wsSweep    = 24
)

// Common kinds (warm hits) and heavy kinds (fresh keys, so misses on
// the durable publish path). Every miss is a simulate query with a new
// seed: a bounds miss computes in microseconds and costs what a hit
// costs, which put heavy ops at the p50 rank.
const (
	kindHitBounds = iota
	kindHitSimulate
	kindHitSweep
	kindHitVerify
)

const (
	kindMissFlock6 = iota
	kindMissFlock8
	kindMissPower2
)

// request is one HTTP query: the endpoint, its body, and the key.Query
// the daemon derives from that body.
type request struct {
	path  string
	body  []byte
	query key.Query
}

// warm is a working-set key and what its prewarm returned.
type warm struct {
	req    request
	key    string
	result []byte // the result member (the /v1/sweep terminal line)
}

type serveInst struct {
	e      *env
	dir    string
	srv    *serve.Server
	http   *http.Server
	ln     net.Listener
	client *http.Client
	base   string
	served chan error
	ws     [commonKinds][]warm
	mem    *memFS
	fs     *countingFS // traced runs only

	// Traced runs only: a probe store for publish timings and the
	// probe aggregates.
	probeStore *store.Store
	probeFS    *memFS
	mu         sync.Mutex
	agg        serveAgg
}

type serveAgg struct {
	keyNs, keyN         int64
	getNs, getN         int64
	publishNs, publishN int64
	computeNs, computeN int64
	sumNs, sumBytes     int64
}

func setupServe(e *env) (instance, error) {
	dir, err := os.MkdirTemp(e.scratch, "serve-")
	if err != nil {
		return nil, err
	}
	s := &serveInst{e: e, dir: dir}
	s.mem = newMemFS()
	cfg := serve.Config{StoreDir: filepath.Join(s.dir, "store"), FS: s.mem}
	if e.tr != nil {
		s.fs = &countingFS{FS: s.mem}
		cfg.FS = s.fs
	}
	if s.srv, err = serve.New(cfg); err != nil {
		return nil, err
	}
	if s.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return nil, err
	}
	s.base = "http://" + s.ln.Addr().String()
	s.http = &http.Server{Handler: s.srv.Handler()}
	s.served = make(chan error, 1)
	go func() { s.served <- s.http.Serve(s.ln) }()
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true}}
	if e.tr != nil {
		s.probeFS = newMemFS()
		if s.probeStore, err = store.Open(filepath.Join(s.dir, "probe-store"), store.Options{FS: s.probeFS}); err != nil {
			s.close()
			return nil, err
		}
	}
	if err := s.prewarm(); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// prewarm computes and stores the working set through the daemon, and
// records every answer for the byte comparisons of later hits.
func (s *serveInst) prewarm() error {
	seed := s.e.seed
	for j := 0; j < wsBounds; j++ {
		s.ws[kindHitBounds] = append(s.ws[kindHitBounds], warm{req: boundsReq(int64(1 + j))})
	}
	for j := 0; j < wsSimulate; j++ {
		s.ws[kindHitSimulate] = append(s.ws[kindHitSimulate], warm{req: simulateReq("flock", 8, 40, 1, seed<<20|int64(j))})
	}
	for j := 0; j < wsSweep; j++ {
		s.ws[kindHitSweep] = append(s.ws[kindHitSweep], warm{req: sweepReq(seed<<20 | int64(j))})
	}
	for j := 0; j < wsVerify; j++ {
		// Four protocols × two input ranges: distinct keys, closures
		// of at most a few hundred configurations.
		protos := []struct {
			name  string
			param int64
		}{{"flock", 4}, {"example42", 4}, {"power2", 3}, {"leaderdoubling", 2}}
		pr := protos[j%len(protos)]
		_, n, err := registry.Make(pr.name, pr.param)
		if err != nil {
			return err
		}
		s.ws[kindHitVerify] = append(s.ws[kindHitVerify], warm{req: verifyReq(pr.name, pr.param, n+2+int64(j/len(protos)))})
	}
	for k := range s.ws {
		for j := range s.ws[k] {
			w := &s.ws[k][j]
			key, result, err := s.do(w.req, "miss")
			if err != nil {
				return fmt.Errorf("prewarm %s: %w", w.req.path, err)
			}
			w.key, w.result = key, result
		}
	}
	return nil
}

func boundsReq(t int64) request {
	p := key.BoundsParams{Op: "rackoff", D: 4, T: t, R: 2}
	return mkReq("/v1/bounds", p, key.Query{Kind: key.KindBounds, Bounds: &p})
}

func simulateReq(protocol string, param, x int64, trials int, seed int64) request {
	p := key.SimulateParams{X: x, Trials: trials, Seed: seed, MaxSteps: 1 << 20, Scheduler: "weighted"}
	spec := key.Spec{Protocol: protocol, Param: param}
	body := struct {
		Spec key.Spec `json:"spec"`
		key.SimulateParams
	}{spec, p}
	return mkReq("/v1/simulate", body, key.Query{Kind: key.KindSimulate, Spec: spec, Simulate: &p})
}

func verifyReq(protocol string, param, maxX int64) request {
	p := key.VerifyParams{MaxX: maxX, Budget: 1 << 14}
	spec := key.Spec{Protocol: protocol, Param: param}
	body := struct {
		Spec key.Spec `json:"spec"`
		key.VerifyParams
	}{spec, p}
	return mkReq("/v1/verify", body, key.Query{Kind: key.KindVerify, Spec: spec, Verify: &p})
}

func sweepReq(seed int64) request {
	p := key.SweepParams{Sizes: []int64{2, 4, 8}, Trials: 6, Seed: seed, MaxSteps: 50000, Scheduler: "weighted", Block: 3}
	spec := key.Spec{Protocol: "flock", Param: 4}
	body := struct {
		Spec key.Spec `json:"spec"`
		key.SweepParams
	}{spec, p}
	return mkReq("/v1/sweep", body, key.Query{Kind: key.KindSweep, Spec: spec, Sweep: &p})
}

func mkReq(path string, body any, q key.Query) request {
	data, err := json.Marshal(body)
	if err != nil {
		panic(err) // plain structs of numbers and strings always marshal
	}
	return request{path: path, body: data, query: q}
}

// do posts one request and checks the reply: status 200 and the
// expected X-Cache value. It returns the response's key and result
// (for /v1/sweep: the terminal merged line).
func (s *serveInst) do(r request, wantCache string) (string, []byte, error) {
	resp, err := s.client.Post(s.base+r.path, "application/json", bytes.NewReader(r.body))
	if err != nil {
		return "", nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return "", nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return "", nil, fmt.Errorf("%s: status %d: %s", r.path, resp.StatusCode, bytes.TrimSpace(body))
	}
	if got := resp.Header.Get("X-Cache"); got != wantCache {
		return "", nil, fmt.Errorf("%s: X-Cache %q, want %q", r.path, got, wantCache)
	}
	if r.path == "/v1/sweep" {
		lines := bytes.Split(bytes.TrimRight(body, "\n"), []byte("\n"))
		last := lines[len(lines)-1]
		if wantCache == "hit" && len(lines) != 1 {
			return "", nil, fmt.Errorf("/v1/sweep hit: %d lines, want the terminal line only", len(lines))
		}
		var term struct {
			Points []json.RawMessage `json:"points"`
		}
		if err := json.Unmarshal(last, &term); err != nil || len(term.Points) != len(r.query.Sweep.Sizes) {
			return "", nil, fmt.Errorf("/v1/sweep: last line is not the terminal merged document: %.80s", last)
		}
		return "", last, nil
	}
	var env struct {
		Key    string          `json:"key"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		return "", nil, fmt.Errorf("%s: %w", r.path, err)
	}
	return env.Key, env.Result, nil
}

// opRequest maps op i to its request: a working-set key for a common
// op, a key no earlier op used for a heavy op.
func (s *serveInst) opRequest(i int, p pick) (request, *warm) {
	if !p.Heavy {
		ws := s.ws[p.Kind]
		w := &ws[p.Variant%uint64(len(ws))]
		return w.req, w
	}
	fresh := s.e.seed<<32 | 1<<31 | int64(i)
	switch p.Kind {
	case kindMissFlock6:
		return simulateReq("flock", 6, 120, 2, fresh), nil
	case kindMissFlock8:
		return simulateReq("flock", 8, 200, 2, fresh), nil
	default:
		return simulateReq("power2", 6, 400, 4, fresh), nil
	}
}

func (s *serveInst) run(i int, p pick) (time.Duration, error) {
	req, w := s.opRequest(i, p)
	want := "miss"
	if w != nil {
		want = "hit"
	}
	t0 := time.Now()
	gotKey, result, err := s.do(req, want)
	lat := time.Since(t0)
	if err != nil {
		return lat, err
	}
	if w != nil {
		if gotKey != w.key || !bytes.Equal(result, w.result) {
			return lat, fmt.Errorf("%s hit differs from its prewarmed answer", req.path)
		}
		return lat, nil
	}
	var sr serve.SimulateResult
	if err := json.Unmarshal(result, &sr); err != nil {
		return lat, err
	}
	if want := req.query.Simulate.Trials; sr.Stats.Trials != want || sr.Stats.Correct != want {
		return lat, fmt.Errorf("simulate miss: %d trials, %d correct, want %d and %d", sr.Stats.Trials, sr.Stats.Correct, want, want)
	}
	return lat, nil
}

// probe replays the op's layer calls outside the op timer: key.Of on
// its query; for a hit, Store.Get on the daemon's store and the
// artifact's checksum; for a miss, the engine call the daemon made and
// a publish of its answer on a probe store.
func (s *serveInst) probe(i int, p pick, root int, tr *tracer) {
	req, w := s.opRequest(i, p)
	q := cloneQuery(req.query) // Normalize fills defaults in place
	var k key.Key
	var err error
	d := tr.do("key.of", i, root, func() {
		if err = q.Normalize(); err == nil {
			k, err = key.Of(&q)
		}
	})
	if err != nil {
		return
	}
	s.mu.Lock()
	s.agg.keyNs += d.Nanoseconds()
	s.agg.keyN++
	s.mu.Unlock()
	ctx := context.Background()
	if w != nil {
		d := tr.do("store.get", i, root, func() { _, err = s.srv.Store().Get(ctx, k) })
		data, rerr := s.mem.ReadFile(s.srv.Store().ObjectPath(k))
		var sum time.Duration
		if rerr == nil {
			sum = tr.do("canon.checksum", i, -1, func() { _, rerr = canon.Checksum(data, "checksum") })
		}
		s.mu.Lock()
		if err == nil {
			s.agg.getNs += d.Nanoseconds()
			s.agg.getN++
		}
		if rerr == nil {
			s.agg.sumNs += sum.Nanoseconds()
			s.agg.sumBytes += int64(len(data))
		}
		s.mu.Unlock()
		return
	}
	// Every miss is a simulate query.
	var payload json.RawMessage
	d = tr.do("serve.compute", i, root, func() { payload, err = computeSimulate(ctx, &q) })
	if err != nil {
		return
	}
	s.mu.Lock()
	s.agg.computeNs += d.Nanoseconds()
	s.agg.computeN++
	s.mu.Unlock()
	d = tr.do("store.publish", i, root, func() {
		_, _, err = s.probeStore.GetOrCompute(ctx, k, q.Kind, func(context.Context) (json.RawMessage, error) { return payload, nil })
	})
	if err == nil {
		s.mu.Lock()
		s.agg.publishNs += d.Nanoseconds()
		s.agg.publishN++
		s.mu.Unlock()
	}
}

// cloneQuery copies a query's parameter block, so normalizing the copy
// leaves the working-set request, which later ops send again, untouched.
func cloneQuery(q key.Query) key.Query {
	switch {
	case q.Simulate != nil:
		p := *q.Simulate
		q.Simulate = &p
	case q.Verify != nil:
		p := *q.Verify
		q.Verify = &p
	case q.Bounds != nil:
		p := *q.Bounds
		q.Bounds = &p
	case q.Sweep != nil:
		p := *q.Sweep
		p.Sizes = append([]int64(nil), p.Sizes...)
		q.Sweep = &p
	}
	return q
}

// computeSimulate makes the engine call /v1/simulate makes for a
// normalized query.
func computeSimulate(ctx context.Context, q *key.Query) (json.RawMessage, error) {
	sp := q.Simulate
	p, n, err := registry.Make(q.Spec.Protocol, q.Spec.Param)
	if err != nil {
		return nil, err
	}
	sched, err := sim.SchedulerByName(sp.Scheduler, sp.Batch, sp.Eps, 0)
	if err != nil {
		return nil, err
	}
	input, err := p.Input(map[string]int64{p.InitialStates()[0]: sp.X})
	if err != nil {
		return nil, err
	}
	stats, err := sim.RunMany(ctx, p, input, sp.X >= n, sp.Trials, sim.Options{
		Seed: sp.Seed, MaxSteps: sp.MaxSteps, StablePatience: sp.Patience, Scheduler: sched,
	})
	if err != nil {
		return nil, err
	}
	return json.Marshal(stats)
}

// metricsSnapshot reads the daemon's GET /metrics.
func (s *serveInst) metricsSnapshot() (*serve.MetricsSnapshot, error) {
	resp, err := s.client.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var snap serve.MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, fmt.Errorf("GET /metrics: %w", err)
	}
	return &snap, nil
}

// finish checks the daemon's own accounting — no failed, refused or
// timed-out request over the whole run — and fills the per-layer
// metrics.
func (s *serveInst) finish(tr *tracer, m metrics) error {
	snap, err := s.metricsSnapshot()
	if err != nil {
		return err
	}
	if snap.Failures != 0 || snap.Timeouts != 0 || snap.Admission.Rejected != 0 {
		return fmt.Errorf("daemon reports %d failures, %d timeouts, %d admission refusals", snap.Failures, snap.Timeouts, snap.Admission.Rejected)
	}
	if m == nil {
		return nil
	}
	s.mu.Lock()
	a := s.agg
	s.mu.Unlock()
	perUs := func(ns, n int64) float64 { return float64(ns) / 1e3 / float64(max(1, n)) }
	m.set("key.of_us", perUs(a.keyNs, a.keyN))
	m.set("store.get_us", perUs(a.getNs, a.getN))
	m.set("store.publish_ms", perUs(a.publishNs, a.publishN)/1e3)
	m.set("serve.compute_ms", perUs(a.computeNs, a.computeN)/1e3)
	if a.sumBytes > 0 {
		m.set("canon.checksum_us_per_kb", float64(a.sumNs)/1e3/(float64(a.sumBytes)/1024))
	}
	m.set("store.hit_ratio", snap.Cache.HitRate)
	m.set("store.dedups", float64(snap.Cache.Dedups))
	m.set("store.io_retries", float64(snap.Cache.IORetries))
	m.set("store.put_failures", float64(snap.Cache.PutFailures))
	m.set("serve.admit_mean_us", float64(snap.Phases["admit"].MeanNs)/1e3)
	m.set("serve.plan_mean_us", float64(snap.Phases["plan"].MeanNs)/1e3)
	m.set("serve.run_mean_us", float64(snap.Phases["run"].MeanNs)/1e3)
	m.set("serve.admission_rejected", float64(snap.Admission.Rejected))
	m.set("serve.timeouts", float64(snap.Timeouts))
	if publishes := snap.Cache.Misses; publishes > 0 {
		m.set("faultfs.fsyncs_per_publish", float64(s.fs.fsyncs.Load())/float64(publishes))
		m.set("faultfs.bytes_per_publish", float64(s.fs.bytes.Load())/float64(publishes))
	}
	if snap.Requests > 0 {
		m.set("faultfs.ops_per_request", float64(s.fs.ops.Load())/float64(snap.Requests))
	}
	// Round trips and handler self time per class: the op span, and the
	// op span minus what its key/store/compute spans cover.
	var hit, miss, hitSelf, missSelf []float64
	tr.mu.Lock()
	kids := map[int][]span{}
	for _, sp := range tr.spans {
		if sp.Parent >= 0 {
			kids[sp.Parent] = append(kids[sp.Parent], sp)
		}
	}
	for id, sp := range tr.spans {
		if sp.Name != "op" {
			continue
		}
		self := ms(sp.dur() - shiftedCover(kids[id], sp.dur()))
		if genOp(s.e.seed, sp.Op).Heavy {
			miss, missSelf = append(miss, ms(sp.dur())), append(missSelf, self)
		} else {
			hit, hitSelf = append(hit, ms(sp.dur())), append(hitSelf, self)
		}
	}
	tr.mu.Unlock()
	m.set("http.roundtrip_ms.hit", mean(hit))
	m.set("http.roundtrip_ms.miss", mean(miss))
	m.set("serve.handler_self_ms.hit", mean(hitSelf))
	m.set("serve.handler_self_ms.miss", mean(missSelf))
	return nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func (s *serveInst) close() error {
	var err error
	if s.http != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		err = s.http.Shutdown(ctx)
		cancel()
		if serr := <-s.served; serr != nil && !errors.Is(serr, http.ErrServerClosed) {
			err = errors.Join(err, serr)
		}
	}
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
	err = errors.Join(err, s.mem.close())
	if s.probeFS != nil {
		err = errors.Join(err, s.probeFS.close())
	}
	return errors.Join(err, os.RemoveAll(s.dir))
}

// countingFS counts the store's I/O through the faultfs seam: every
// call, every fsync (file or directory) and every byte written.
type countingFS struct {
	faultfs.FS
	ops, fsyncs, bytes atomic.Int64
}

func (c *countingFS) ReadFile(name string) ([]byte, error) {
	c.ops.Add(1)
	return c.FS.ReadFile(name)
}

func (c *countingFS) WriteFile(name string, data []byte, perm fs.FileMode) error {
	c.ops.Add(1)
	c.bytes.Add(int64(len(data)))
	return c.FS.WriteFile(name, data, perm)
}

func (c *countingFS) WriteFileSync(name string, data []byte, perm fs.FileMode) error {
	c.ops.Add(1)
	c.fsyncs.Add(1)
	c.bytes.Add(int64(len(data)))
	return c.FS.WriteFileSync(name, data, perm)
}

func (c *countingFS) Append(name string, data []byte, perm fs.FileMode) error {
	c.ops.Add(1)
	c.bytes.Add(int64(len(data)))
	return c.FS.Append(name, data, perm)
}

func (c *countingFS) Rename(oldname, newname string) error {
	c.ops.Add(1)
	return c.FS.Rename(oldname, newname)
}

func (c *countingFS) Link(oldname, newname string) error {
	c.ops.Add(1)
	return c.FS.Link(oldname, newname)
}

func (c *countingFS) Remove(name string) error {
	c.ops.Add(1)
	return c.FS.Remove(name)
}

func (c *countingFS) Stat(name string) (fs.FileInfo, error) {
	c.ops.Add(1)
	return c.FS.Stat(name)
}

func (c *countingFS) MkdirAll(name string, perm fs.FileMode) error {
	c.ops.Add(1)
	return c.FS.MkdirAll(name, perm)
}

func (c *countingFS) SyncDir(name string) error {
	c.ops.Add(1)
	c.fsyncs.Add(1)
	return c.FS.SyncDir(name)
}
