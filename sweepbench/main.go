// Command sweepbench is the repository's benchmark: it sweeps named
// (workload x protection mode) grids through the public entry points —
// harness.Run over a resultstore, and an in-process service.Server driven
// by service.Client over loopback — and reports what a user of a sweep
// sees: set-up time, makespan, host CPU, cached re-run time and memory.
// With --trace 1 it instead reports per-layer figures: package CPU shares
// from a CPU profile, timings of the store and service boundaries, and
// replays that time one layer's public functions at a time.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash sweepbench/run.sh --workload fig6-membound --seed 1 --seconds 20 --trace 0
//	bash sweepbench/run.sh --smoke
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; a human-readable table goes to
// standard error. Any failed correctness check makes the exit status 1.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"secddr/internal/harness"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"makespan_s", "s"},
	{"cpu_s", "s"},
	{"resubmit_s", "s"},
	{"peak_mem_mb", "MiB"},
	{"ok_ratio", "ratio"},
}

// perLayer lists the traced run's metrics. Shares are of the CPU profile
// taken over the traced iterations; the *_ns figures come from the
// replays; counts are per iteration.
var perLayer = []metricDef{
	{"memctrl.cpu_share", "ratio"},
	{"dram.cpu_share", "ratio"},
	{"memctrl.tick_ns_fullq", "ns"},
	{"dram.earliest_issue_ns", "ns"},
	{"cpu.cpu_share", "ratio"},
	{"cpu.ns_per_instr", "ns"},
	{"trace.cpu_share", "ratio"},
	{"trace.next_ns", "ns"},
	{"cache.cpu_share", "ratio"},
	{"cache.access_ns", "ns"},
	{"cache.hit_ratio", "ratio"},
	{"secmem.cpu_share", "ratio"},
	{"integrity.cpu_share", "ratio"},
	{"secmem.ns_per_read", "ns"},
	{"secmem.meta_miss_ratio", "ratio"},
	{"sim.cpu_share", "ratio"},
	{"sim.warmup_s", "s"},
	{"sim.fork_prime_s", "s"},
	{"sim.fork_copy_s", "s"},
	{"sim.minstr_per_s", "Minstr/s"},
	{"harness.warmups", "count"},
	{"harness.forked", "count"},
	{"harness.sched_efficiency", "ratio"},
	{"harness.tail_s", "s"},
	{"resultstore.record_s", "s"},
	{"resultstore.record_count", "count"},
	{"resultstore.lookup_s", "s"},
	{"resultstore.lookup_hit_ratio", "ratio"},
	{"resultstore.cpu_share", "ratio"},
	{"service.cpu_share", "ratio"},
	{"service.submit_ms", "ms"},
	{"service.queue_wait_p50_ms", "ms"},
	{"service.queue_wait_p90_ms", "ms"},
	{"service.sim_wall_p50_ms", "ms"},
	{"service.wal_records", "count"},
	{"gc.cpu_share", "ratio"},
	{"sim.instructions", "count"},
	{"sim.cycles", "count"},
	{"dram.reads", "count"},
	{"dram.writes", "count"},
	{"dram.row_hit_ratio", "ratio"},
	{"memctrl.avg_read_latency_cyc", "cycles"},
	{"tracing.overhead_s", "s"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	smoke    bool
	buildDir string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: fig6-membound, compute-bound or served-mixed")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&o.seconds, "seconds", 20, "seconds to measure for")
	flag.IntVar(&o.trace, "trace", 0, "1 reports per-layer metrics from a traced run instead of end-to-end ones")
	flag.BoolVar(&o.smoke, "smoke", false, "run every workload at tiny scale through the correctness gate, without measuring")
	flag.StringVar(&o.buildDir, "build-dir", ".bench_build", "directory for scratch stores and span files")
	flag.Parse()
	if err := os.MkdirAll(o.buildDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "sweepbench:", err)
		os.Exit(2)
	}
	if o.smoke {
		os.Exit(smoke(o))
	}
	w, ok := workloadByName(o.workload)
	if !ok || o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintf(os.Stderr, "sweepbench: need --workload (one of %s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	rep, err := measure(context.Background(), o, w)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweepbench:", err)
		os.Exit(1)
	}
	if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
		os.Exit(1)
	}
	if !rep.Correct {
		os.Exit(1)
	}
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// newRunner prepares a workload's jobs and a scratch directory under the
// build directory; the caller removes r.tmp.
func newRunner(o options, w workload) (*runner, error) {
	grid, err := w.spec(o.seed).Grid()
	if err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(o.buildDir, "run-")
	if err != nil {
		return nil, err
	}
	return &runner{w: w, seed: o.seed, workers: runtime.NumCPU(), jobs: grid.Jobs(), tmp: tmp}, nil
}

// measure runs iterations of w until --seconds have passed, checks every
// one, and reports end-to-end or (--trace 1) per-layer metrics.
func measure(ctx context.Context, o options, w workload) (report, error) {
	r, err := newRunner(o, w)
	if err != nil {
		return report{}, err
	}
	defer os.RemoveAll(r.tmp)

	traced := o.trace == 1
	var pr *probe
	if traced {
		tr := newTracer()
		pr = &probe{spans: tr, store: &timedStore{tracer: tr}, hists: make(map[string][][]bucket)}
	}
	var (
		g                 gate
		ref               []harness.Outcome
		plain, withTraces []sample
		stacks            []stack
	)
	var setups []float64
	deadline := time.Now().Add(time.Duration(o.seconds) * time.Second)
	// Traced runs alternate untraced and traced iterations, so both sides
	// of the tracing overhead see the same machine state.
	for i := 0; i < 1 || (traced && i < 2) || time.Now().Before(deadline); i++ {
		if !traced {
			ds, err := r.setupTimes(setupsPerIteration)
			if err != nil {
				return report{}, fmt.Errorf("set-up: %w", err)
			}
			setups = append(setups, ds...)
		}
		var p *probe
		var prof bytes.Buffer
		if traced && i%2 == 1 {
			p = pr
			if err := pprof.StartCPUProfile(&prof); err != nil {
				return report{}, err
			}
		}
		mem := startMemSampler(2 * time.Millisecond)
		s, err := r.run(ctx, p)
		s.peakMem = mem.Stop()
		if p != nil {
			pprof.StopCPUProfile()
			st, perr := parseCPUProfile(prof.Bytes())
			if perr != nil {
				return report{}, perr
			}
			stacks = append(stacks, st...)
		}
		if err != nil {
			g.note(len(r.jobs), len(r.jobs), "iteration %d: %v", i, err)
			break
		}
		if ref == nil {
			ref = s.outs
		}
		g.iteration(ref, s)
		s.outs, s.reruns = nil, nil // checked; only the timings are kept
		fmt.Fprintf(os.Stderr, "  iteration %d traced=%v: makespan %.4f s, cpu %.4f s, re-run median %.6f s, peak mem %.1f MiB\n",
			i, p != nil, s.makespan, s.cpu, median(s.resubmit), s.peakMem)
		if p != nil {
			withTraces = append(withTraces, s)
		} else {
			plain = append(plain, s)
		}
	}
	sha := ""
	if ref != nil {
		sha = resultsSHA(ref)
		if err := g.coldPoints(r.jobs, ref, w.check); err != nil {
			return report{}, err
		}
		if w.served {
			if err := g.localRun(r.jobs, ref, r.workers, filepath.Join(r.tmp, "gate")); err != nil {
				return report{}, err
			}
		}
		if want, ok := recordedSHA[w.shaKey()][o.seed]; ok {
			bad := 0
			if sha != want {
				bad = len(ref)
			}
			g.note(len(ref), bad, "results_sha256 %s, recorded %s for seed %d", sha, want, o.seed)
			sha += " (recorded)"
		}
	}
	fmt.Fprintf(os.Stderr, "sweepbench: %s seed %d: %d points per run, results_sha256 %s\n", w.shaKey(), o.seed, len(r.jobs), sha)
	for _, p := range g.problems {
		fmt.Fprintln(os.Stderr, "sweepbench: FAILED:", p)
	}

	rep := report{Correct: g.failed == 0, Attempted: max(g.attempted, 1), Failed: g.failed, Metrics: map[string]metric{}}
	if o.smoke {
		return rep, nil
	}
	if !traced {
		endToEndMetrics(rep.Metrics, plain, setups, g)
		return rep, nil
	}
	if err := layerMetrics(rep.Metrics, o, r, pr, plain, withTraces, stacks, ref); err != nil {
		return report{}, err
	}
	return rep, nil
}

// setupsPerIteration is how many set-ups an untraced run times before
// each iteration. A set-up is a few file-system metadata calls whose
// latency follows the host's disk load; spreading the set-ups over the
// run, as the sweeps are, keeps a passing disturbance from setting the
// median.
const setupsPerIteration = 50

func endToEndMetrics(m map[string]metric, samples []sample, setup []float64, g gate) {
	series := map[string][]float64{"setup_s": setup}
	for _, s := range samples {
		series["makespan_s"] = append(series["makespan_s"], s.makespan)
		series["cpu_s"] = append(series["cpu_s"], s.cpu)
		series["resubmit_s"] = append(series["resubmit_s"], s.resubmit...)
		series["peak_mem_mb"] = append(series["peak_mem_mb"], s.peakMem)
	}
	ok := 1 - float64(g.failed)/float64(max(g.attempted, 1))
	for _, d := range endToEnd {
		if d.name == "ok_ratio" {
			m[d.name] = metric{Value: ok, Unit: d.unit}
			fmt.Fprintf(os.Stderr, "  %-12s %-19.6g %-16s n=%d  (%d failed)\n", d.name, ok, "", g.attempted, g.failed)
			continue
		}
		xs := series[d.name]
		m[d.name] = metric{Value: median(xs), Unit: d.unit}
		tail := ""
		if p, ok := tailPercentile(len(xs)); ok {
			tail = fmt.Sprintf("p%g %.6g", p, percentile(xs, p))
		}
		fmt.Fprintf(os.Stderr, "  %-12s median %-12.6g %-16s n=%d  %s\n", d.name, median(xs), tail, len(xs), d.unit)
	}
}

func layerMetrics(m map[string]metric, o options, r *runner, pr *probe, plain, traced []sample, stacks []stack, ref []harness.Outcome) error {
	set := func(name string, v float64) { m[name] = metric{Value: v} }

	shares := layerShares(stacks)
	for _, l := range []string{"memctrl", "dram", "cpu", "trace", "cache", "secmem", "integrity", "sim", "resultstore", "service", "gc"} {
		set(l+".cpu_share", shares[l])
	}

	rp, err := replayLayers(pr.spans, r.w.replay, o.seed)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	set("trace.next_ns", rp.traceNextNs)
	set("cache.access_ns", rp.cacheAccessNs)
	set("cache.hit_ratio", rp.cacheHitRatio)
	set("memctrl.tick_ns_fullq", rp.memctrlTickNs)
	set("dram.earliest_issue_ns", rp.dramEarliestNs)
	set("cpu.ns_per_instr", rp.cpuNsPerInstr)
	set("secmem.ns_per_read", rp.secmemNsPerRead)
	set("secmem.meta_miss_ratio", rp.secmemMetaMissRatio)

	var point *harness.Job
	for i, j := range r.jobs {
		if j.Opt.WorkloadName() == r.w.replay && !j.Opt.Fidelity.Sampled() {
			point = &r.jobs[i]
			break
		}
	}
	if point == nil {
		return fmt.Errorf("no exact %s point to time", r.w.replay)
	}
	st, err := timeSimPoint(pr.spans, *point)
	if err != nil {
		return fmt.Errorf("timing %s: %w", point.Key, err)
	}
	set("sim.warmup_s", st.warmup)
	set("sim.fork_prime_s", st.forkPrime)
	set("sim.fork_copy_s", st.forkCopy)
	set("sim.minstr_per_s", st.minstrPerS)

	all := append(append([]sample(nil), plain...), traced...)
	var eff, tails, warmups, forked, plainSpan, tracedSpan []float64
	for _, s := range all {
		eff = append(eff, s.cpu/(s.makespan*float64(r.workers)))
		tails = append(tails, s.tail)
		warmups = append(warmups, float64(s.stats.Warmups))
		forked = append(forked, float64(s.stats.Forked))
	}
	for _, s := range plain {
		plainSpan = append(plainSpan, s.makespan)
	}
	for _, s := range traced {
		tracedSpan = append(tracedSpan, s.makespan)
	}
	set("harness.sched_efficiency", median(eff))
	set("harness.tail_s", median(tails))
	set("harness.warmups", median(warmups))
	set("harness.forked", median(forked))
	set("tracing.overhead_s", median(tracedSpan)-median(plainSpan))

	n := float64(max(len(traced), 1))
	ts := pr.store
	set("resultstore.record_s", float64(ts.recordNanos.Load())/1e9/n)
	set("resultstore.record_count", float64(ts.records.Load())/n)
	set("resultstore.lookup_s", float64(ts.lookupNanos.Load())/1e9/n)
	if l := ts.lookups.Load(); l > 0 {
		set("resultstore.lookup_hit_ratio", float64(ts.hits.Load())/float64(l))
	} else {
		set("resultstore.lookup_hit_ratio", 0)
	}

	set("service.submit_ms", median(pr.submit)*1e3)
	set("service.queue_wait_p50_ms", histQuantile(pr.hists["secddr_queue_wait_us"], 0.5)/1e3)
	set("service.queue_wait_p90_ms", histQuantile(pr.hists["secddr_queue_wait_us"], 0.9)/1e3)
	set("service.sim_wall_p50_ms", histQuantile(pr.hists["secddr_job_sim_wall_us"], 0.5)/1e3)
	set("service.wal_records", pr.walRecords/n)

	var instr, cycles, reads, writes, rowHits, latSum float64
	for _, out := range ref {
		res := out.Result
		instr += float64(res.Instructions)
		cycles += float64(res.Cycles)
		reads += float64(res.DRAMReads)
		writes += float64(res.DRAMWrites)
		rowHits += res.RowHitRate * float64(res.DRAMReads+res.DRAMWrites)
		latSum += res.AvgReadLatency * float64(res.DRAMReads)
	}
	set("sim.instructions", instr)
	set("sim.cycles", cycles)
	set("dram.reads", reads)
	set("dram.writes", writes)
	set("dram.row_hit_ratio", rowHits/max(reads+writes, 1))
	set("memctrl.avg_read_latency_cyc", latSum/max(reads, 1))

	for _, d := range perLayer {
		v, ok := m[d.name]
		if !ok {
			return fmt.Errorf("per-layer metric %s was not measured", d.name)
		}
		v.Unit = d.unit
		m[d.name] = v
		fmt.Fprintf(os.Stderr, "  %-30s %-14.6g %s\n", d.name, v.Value, d.unit)
	}
	return writeSpans(o, r.w.name, pr.spans)
}

// writeSpans saves the traced run's spans under the build directory and
// prints their self time per span name.
func writeSpans(o options, name string, tr *Tracer) error {
	spans := tr.Spans()
	self := selfByName(spans)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintf(os.Stderr, "sweepbench: span self time (s), %d spans:\n", len(spans))
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-30s %.6f\n", n, self[n])
	}
	path := filepath.Join(o.buildDir, fmt.Sprintf("spans-%s-%d.json", name, o.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	fmt.Fprintln(os.Stderr, "sweepbench: spans written to", path)
	return f.Close()
}

// smoke runs one tiny iteration of every workload through the full
// correctness gate and reports only whether it held.
func smoke(o options) int {
	o.seconds, o.trace = 0, 0
	rep := report{Metrics: map[string]metric{}}
	for _, w := range workloads {
		wr, err := measure(context.Background(), o, w.smokeScale())
		if err != nil {
			fmt.Fprintf(os.Stderr, "sweepbench: smoke %s: %v\n", w.name, err)
			return 1
		}
		rep.Attempted += wr.Attempted
		rep.Failed += wr.Failed
	}
	rep.Correct = rep.Failed == 0
	if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil || !rep.Correct {
		return 1
	}
	return 0
}
