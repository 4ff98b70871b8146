package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"secddr/internal/harness"
	"secddr/internal/obs"
	"secddr/internal/resultstore"
	"secddr/internal/service"
)

// workload is one named grid the benchmark sweeps. Every workload crosses
// its profiles with the five Fig. 6 configurations on the 4-core Table I
// platform; the seed is the benchmark's --seed.
type workload struct {
	name     string
	profiles []string
	instr    uint64 // measured instructions per core
	warmup   uint64 // warmup instructions per core
	served   bool   // submit to an in-process service.Server instead of harness.Run
	sampled  bool   // add a sampled fidelity axis beside the exact one
	replay   string // profile the per-layer replays draw their streams from
	check    string // profile whose points are checked against a cold sim.Run
	smoke    bool   // shrunk by smokeScale
}

var workloads = []workload{
	{
		name:     "fig6-membound",
		profiles: []string{"mcf", "lbm", "pr"},
		instr:    40_000, warmup: 20_000,
		replay: "mcf", check: "lbm",
	},
	{
		name:     "compute-bound",
		profiles: []string{"povray", "exchange2", "leela", "perlbench", "x264"},
		instr:    2_000_000, warmup: 100_000,
		replay: "povray", check: "povray",
	},
	{
		// QuickScale (experiments.QuickScale): 120k instructions per core
		// span three periods of the default sampling schedule.
		name:     "served-mixed",
		profiles: []string{"mcf", "lbm", "pr", "povray", "xz", "bfs"},
		instr:    120_000, warmup: 60_000,
		served: true, sampled: true,
		replay: "mcf", check: "povray",
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// smokeScale shrinks a workload to a few thousand instructions per core,
// enough to drive every path and the correctness gate in seconds.
func (w workload) smokeScale() workload {
	w.instr, w.warmup, w.smoke = 4_000, 2_000, true
	return w
}

// shaKey names the workload at its scale in recordedSHA.
func (w workload) shaKey() string {
	if w.smoke {
		return w.name + "/smoke"
	}
	return w.name
}

// spec is the workload as a sweep request. Local workloads expand the
// same spec with Spec.Grid, so both entry points sweep identical jobs.
func (w workload) spec(seed uint64) service.Spec {
	sp := service.Spec{
		Modes:        []string{"fig6"},
		Workloads:    w.profiles,
		InstrPerCore: w.instr,
		WarmupInstr:  w.warmup,
		Seed:         &seed,
	}
	if w.sampled {
		// The simulator's default sampling schedule, as a user's sampled
		// sweep runs it.
		sp.Fidelity = &service.FidelitySpec{Modes: []string{"exact", "sampled"}}
	}
	return sp
}

// sample is what one iteration of a workload measured.
type sample struct {
	makespan, cpu float64   // seconds
	resubmit      []float64 // seconds, one per cached re-run
	outs          []harness.Outcome
	stats         harness.Stats
	reruns        [][]harness.Outcome
	rerunStats    []harness.Stats
	tail          float64 // seconds after fewer points than workers remained
	peakMem       float64 // MiB, see memSampler
}

// resubmits is how many cached re-runs each iteration times.
const resubmits = 20

// probe collects the traced run's per-layer observations; nil in untraced
// runs.
type probe struct {
	spans  *Tracer
	store  *timedStore
	submit []float64 // seconds per sweep submission
	// Cumulative buckets of the server's latency histograms, one list per
	// scraped server, keyed by metric family.
	hists      map[string][][]bucket
	walRecords float64
}

// tailClock notes when fewer points than workers remain: from then on the
// pool cannot stay busy, so the time after it is the campaign's tail.
type tailClock struct {
	mu      sync.Mutex
	workers int
	at      time.Time
}

func (c *tailClock) observe(remaining int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.at.IsZero() && remaining < c.workers {
		c.at = time.Now()
	}
}

func (c *tailClock) since(end time.Time) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.at.IsZero() {
		return 0
	}
	return end.Sub(c.at).Seconds()
}

// tracer returns the probe's tracer; nil (which records nothing) for an
// untraced iteration.
func (pr *probe) tracer() *Tracer {
	if pr == nil {
		return nil
	}
	return pr.spans
}

// enter makes span id the parent of the store calls that follow.
func (pr *probe) enter(id int64) {
	if pr != nil {
		pr.store.parent.Store(id)
	}
}

// runner executes iterations of one workload.
type runner struct {
	w       workload
	seed    uint64
	workers int
	jobs    []harness.Job
	tmp     string // scratch root for stores; removed by the caller
	iter    int
}

func (r *runner) nextDir() string {
	r.iter++
	return filepath.Join(r.tmp, fmt.Sprintf("iter-%d", r.iter))
}

// site is what set-up produces: an open store and, for served workloads,
// a server listening on loopback.
type site struct {
	store harness.Store
	base  string // server URL; empty for local workloads
	close func() error
}

// open sets up a fresh store in dir and, for served workloads, a WAL, a
// recovered server and its listener: everything that must exist before the
// first job can dispatch.
func (r *runner) open(dir string, pr *probe) (*site, error) {
	rs, err := resultstore.Open(dir, resultstore.Options{})
	if err != nil {
		return nil, err
	}
	st := &site{store: rs, close: rs.Close}
	if pr != nil {
		pr.store.inner = rs
		st.store = pr.store
	}
	if !r.w.served {
		return st, nil
	}
	wal, err := service.OpenWAL(rs.Dir(), 0)
	if err != nil {
		rs.Close()
		return nil, err
	}
	srv := service.NewServer(st.store, service.ServerOptions{Workers: r.workers, WAL: wal})
	stopServer := func() error {
		srv.Shutdown()
		srv.Drain()
		return errors.Join(wal.Close(), rs.Close())
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err == nil {
		_, err = srv.Recover()
	}
	if err != nil {
		if ln != nil {
			ln.Close()
		}
		return nil, errors.Join(err, stopServer())
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	st.base = "http://" + ln.Addr().String()
	st.close = func() error {
		hs.Close()
		err := <-served
		if errors.Is(err, http.ErrServerClosed) {
			err = nil
		}
		return errors.Join(err, stopServer())
	}
	return st, nil
}

// setupTimes times n set-ups, each torn down before the next.
func (r *runner) setupTimes(n int) ([]float64, error) {
	var ds []float64
	for i := 0; i < n; i++ {
		dir := r.nextDir()
		t := time.Now()
		st, err := r.open(dir, nil)
		d := time.Since(t).Seconds()
		if err == nil {
			err = st.close()
		}
		os.RemoveAll(dir)
		if err != nil {
			return nil, err
		}
		ds = append(ds, d)
	}
	return ds, nil
}

// run performs one iteration: set up a fresh store (and server), sweep the
// grid, then re-run it several times with every point a store hit.
func (r *runner) run(ctx context.Context, pr *probe) (s sample, err error) {
	dir := r.nextDir()
	defer os.RemoveAll(dir)
	tr := pr.tracer()
	endIter, iterID := tr.Begin("workload", r.w.name, 0)
	defer endIter()

	st, err := r.open(dir, pr)
	if err != nil {
		return s, err
	}
	defer func() {
		if cerr := st.close(); err == nil {
			err = cerr
		}
	}()

	tail := &tailClock{workers: r.workers}
	endRun, runID := tr.Begin("sweep", "", iterID)
	pr.enter(runID)
	cpu0, t1 := cpuTime(), time.Now()
	s.outs, s.stats, err = r.sweep(ctx, st, fmt.Sprintf("bench-%d", r.iter), tail, pr, runID)
	end := time.Now()
	s.makespan, s.cpu = end.Sub(t1).Seconds(), (cpuTime() - cpu0).Seconds()
	s.tail = tail.since(end)
	endRun()
	if err != nil {
		return s, err
	}

	for i := 0; i < resubmits; i++ {
		// Served re-runs use a fresh key and client name: a new sweep over
		// digests the store already holds.
		key := fmt.Sprintf("resubmit-%d-%d", r.iter, i)
		endRe, reID := tr.Begin("sweep.cached", key, iterID)
		pr.enter(reID)
		t := time.Now()
		outs, stats, err := r.sweep(ctx, st, key, nil, pr, reID)
		s.resubmit = append(s.resubmit, time.Since(t).Seconds())
		endRe()
		if err != nil {
			return s, err
		}
		s.reruns, s.rerunStats = append(s.reruns, outs), append(s.rerunStats, stats)
	}
	if pr != nil && st.base != "" {
		err = pr.scrape(ctx, st.base)
	}
	return s, err
}

// sweep runs the grid once through the workload's entry point.
func (r *runner) sweep(ctx context.Context, st *site, key string, tail *tailClock, pr *probe, parent int64) ([]harness.Outcome, harness.Stats, error) {
	if st.base != "" {
		return r.sweepServed(ctx, st.base, key, tail, pr, parent)
	}
	camp := harness.Campaign{Jobs: r.jobs, Workers: r.workers, Store: st.store}
	if tail != nil {
		camp.Progress = func(p harness.Progress) {
			if p.Executed > 0 || p.Pending < r.workers {
				tail.observe(p.Pending - p.Executed)
			}
		}
	}
	end, _ := pr.tracer().Begin("harness.Run", key, parent)
	defer end()
	return harness.Run(camp)
}

// sweepServed submits the workload's spec under key through a fresh client
// and streams its results back, in job order.
func (r *runner) sweepServed(ctx context.Context, base, key string, tail *tailClock, pr *probe, parent int64) ([]harness.Outcome, harness.Stats, error) {
	transport := &http.Transport{}
	defer transport.CloseIdleConnections()
	client := &service.Client{BaseURL: base, HTTPClient: &http.Client{Transport: transport}}
	spec := r.w.spec(r.seed)
	spec.Client = key
	tr := pr.tracer()

	endSub, _ := tr.Begin("service.Submit", key, parent)
	t := time.Now()
	sub, err := client.SubmitKeyed(ctx, key, spec)
	if pr != nil {
		pr.submit = append(pr.submit, time.Since(t).Seconds())
	}
	endSub()
	if err != nil {
		return nil, harness.Stats{}, err
	}
	if sub.Total != len(r.jobs) {
		return nil, harness.Stats{}, fmt.Errorf("server expanded %d jobs, benchmark %d", sub.Total, len(r.jobs))
	}

	endStream, _ := tr.Begin("service.StreamResults", key, parent)
	defer endStream()
	byKey := make(map[string]harness.Outcome, len(r.jobs))
	var stats *harness.Stats
	var state, msg string
	err = client.StreamResults(ctx, sub.ID, func(it service.StreamItem) error {
		if it.End {
			stats, state, msg = it.Stats, it.State, it.Error
			return nil
		}
		byKey[it.Key] = it.Outcome
		if tail != nil {
			tail.observe(len(r.jobs) - len(byKey))
		}
		return nil
	})
	if err != nil {
		return nil, harness.Stats{}, err
	}
	if state != "done" || stats == nil {
		return nil, harness.Stats{}, fmt.Errorf("sweep %s ended %q: %s", key, state, msg)
	}
	outs := make([]harness.Outcome, len(r.jobs))
	for i, j := range r.jobs {
		o, ok := byKey[j.Key]
		if !ok {
			return nil, *stats, fmt.Errorf("sweep %s returned no outcome for %q", key, j.Key)
		}
		outs[i] = o
	}
	return outs, *stats, nil
}

// scrape reads the server's /metrics and folds its latency histograms and
// WAL counter into the probe.
func (pr *probe) scrape(ctx context.Context, base string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return err
	}
	transport := &http.Transport{}
	defer transport.CloseIdleConnections()
	resp, err := (&http.Client{Transport: transport}).Do(req)
	if err != nil {
		return fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	fams, err := obs.ParseExposition(resp.Body)
	if err != nil {
		return fmt.Errorf("scraping /metrics: %w", err)
	}
	if f, ok := fams["secddr_wal_records_total"]; ok {
		v, _ := f.Value()
		pr.walRecords += v
	}
	for _, name := range []string{"secddr_queue_wait_us", "secddr_job_sim_wall_us"} {
		f, ok := fams[name]
		if !ok {
			return fmt.Errorf("/metrics has no %s", name)
		}
		var h []bucket
		for _, smp := range f.Samples {
			if smp.Name != name+"_bucket" {
				continue
			}
			le, err := strconv.ParseFloat(smp.Labels["le"], 64)
			if err != nil {
				return fmt.Errorf("/metrics %s: bucket bound: %w", name, err)
			}
			h = append(h, bucket{le: le, cum: smp.Value})
		}
		pr.hists[name] = append(pr.hists[name], h)
	}
	return nil
}
