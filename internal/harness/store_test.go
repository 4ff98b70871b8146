package harness

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"secddr/internal/config"
	"secddr/internal/resultstore"
	"secddr/internal/sim"
)

// The segment store must satisfy the campaign Store contract.
var _ Store = (*resultstore.Store)(nil)

// TestStoreBackedCampaign re-runs an identical campaign against the same
// store: every point must be served from it, byte-identically.
func TestStoreBackedCampaign(t *testing.T) {
	st, err := resultstore.Open(filepath.Join(t.TempDir(), "store"), resultstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	c := Campaign{Jobs: tinyGrid().Jobs(), Store: st}

	first, stats, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Executed != 4 || stats.Cached != 0 {
		t.Fatalf("first run stats = %+v, want 4 executed", stats)
	}
	second, stats, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Executed != 0 || stats.Cached != 4 {
		t.Fatalf("second run stats = %+v, want 4 cached / 0 executed", stats)
	}
	for i, o := range second {
		if !o.Cached {
			t.Errorf("outcome %q not served from store", o.Key)
		}
		if !reflect.DeepEqual(first[i].Result, o.Result) {
			t.Errorf("outcome %q differs between live and cached run", o.Key)
		}
	}
}

// TestCacheHitSkip: points recorded by one campaign survive closing and
// reopening the store, and a later campaign serves every one of them from
// disk without simulating, equal to the live results.
func TestCacheHitSkip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	c := Campaign{Jobs: tinyGrid().Jobs()}

	st, err := resultstore.Open(dir, resultstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c.Store = st
	first, stats, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Executed != 4 || stats.Cached != 0 {
		t.Fatalf("first run stats = %+v, want 4 executed", stats)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st, err = resultstore.Open(dir, resultstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	c.Store = st
	second, stats, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Executed != 0 || stats.Cached != 4 {
		t.Fatalf("run after reopen stats = %+v, want 4 cached / 0 executed", stats)
	}
	for i := range first {
		if !second[i].Cached {
			t.Errorf("outcome %q not marked cached", second[i].Key)
		}
		if !reflect.DeepEqual(first[i].Result, second[i].Result) {
			t.Errorf("outcome %q differs between live and reopened-store run", first[i].Key)
		}
	}
}

// TestCorruptCheckpointRejected: a corrupt or wrong-version checkpoint-v1
// file is refused by the importer, naming the problem, and leaves the
// store untouched, so a campaign on that store simulates every point
// instead of serving anything the bad file held.
func TestCorruptCheckpointRejected(t *testing.T) {
	dir := t.TempDir()
	st, err := resultstore.Open(filepath.Join(dir, "store"), resultstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	jobs := tinyGrid().Jobs()[:1]
	ckpt := filepath.Join(dir, "bad.ckpt.json")
	for _, tc := range []struct{ doc, want string }{
		{`{not json`, "corrupt"},
		{`{"version":99,"entries":{"` + jobs[0].Opt.Digest() + `":{"IPC":1}}}`, "version"},
	} {
		if err := os.WriteFile(ckpt, []byte(tc.doc), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := resultstore.MigrateCheckpoint(ckpt, st); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("checkpoint %q: err = %v, want a %q rejection", tc.doc, err, tc.want)
		}
	}
	if n := st.Stats().Entries; n != 0 {
		t.Fatalf("rejected checkpoints left %d entries in the store", n)
	}
	if _, stats, err := Run(Campaign{Jobs: jobs, Store: st}); err != nil {
		t.Fatal(err)
	} else if stats.Executed != 1 || stats.Cached != 0 {
		t.Errorf("campaign after rejected checkpoint stats = %+v, want 1 executed", stats)
	}
}

// TestRunContextCancel: a cancelled campaign must stop dispatching, keep
// every completed point in the store, and report the interruption.
func TestRunContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: nothing may dispatch
	st, err := resultstore.Open(filepath.Join(t.TempDir(), "store"), resultstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	if _, stats, err := RunContext(ctx, Campaign{Jobs: tinyGrid().Jobs(), Store: st}); err == nil {
		t.Fatal("cancelled campaign reported success")
	} else if stats.Executed != 0 {
		t.Fatalf("cancelled-before-dispatch campaign executed %d points", stats.Executed)
	}

	// A campaign cancelled mid-flight still returns an error, and whatever
	// finished is in the store for the resumed run to reuse.
	jobs := tinyGrid().Jobs()
	if _, _, err := Run(Campaign{Jobs: jobs[:1], Store: st}); err != nil {
		t.Fatal(err)
	}
	outs, stats, err := Run(Campaign{Jobs: jobs, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Cached != 1 || stats.Executed != 3 {
		t.Fatalf("resumed run stats = %+v, want 1 cached / 3 executed", stats)
	}
	if !outs[0].Cached {
		t.Error("point completed before interruption was re-simulated")
	}
}

// TestStubSimSharesScheduler runs a substituted Sim through the single
// scheduler: every point is called once and never forked, the first
// failure is reported once and stops dispatch, points finished before it
// stay in the store, and a campaign cancelled up front runs nothing.
func TestStubSimSharesScheduler(t *testing.T) {
	st, err := resultstore.Open(filepath.Join(t.TempDir(), "store"), resultstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	// Exact and sampled rows of a point share a WarmupKey, so the built-in
	// simulator would group them; a stub must see each point on its own.
	grid := tinyGrid()
	grid.Fidelities = []sim.Fidelity{{}, {Mode: sim.FidelitySampled}}
	jobs := grid.Jobs()
	var (
		mu    sync.Mutex
		calls []string
	)
	stub := func(fail string) func(sim.Options) (sim.Result, error) {
		return func(o sim.Options) (sim.Result, error) {
			d := o.Digest()
			mu.Lock()
			calls = append(calls, d)
			mu.Unlock()
			if d == fail {
				return sim.Result{}, errors.New("stub failure")
			}
			return sim.Result{Workload: o.WorkloadName(), Mode: o.Config.Security.Mode, IPC: 1}, nil
		}
	}

	_, stats, err := Run(Campaign{Jobs: jobs, Workers: 1, Sim: stub("")})
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != len(jobs) || stats.Executed != len(jobs) {
		t.Fatalf("stub ran %d times, stats %+v; want %d points each run once", len(calls), stats, len(jobs))
	}
	if stats.Forked != 0 || stats.Warmups != 0 {
		t.Fatalf("stub campaign reports forked=%d warmups=%d, want 0/0", stats.Forked, stats.Warmups)
	}

	// One worker dispatches in job order, so failing the third point
	// leaves exactly the first two finished and the rest never started.
	calls = nil
	failing := jobs[2].Opt.Digest()
	var reported []string
	_, stats, err = Run(Campaign{
		Jobs:    jobs,
		Workers: 1,
		Store:   st,
		Sim:     stub(failing),
		OnError: func(d string, err error) { reported = append(reported, d) },
	})
	if err == nil {
		t.Fatal("failing stub did not fail the campaign")
	}
	if len(reported) != 1 || reported[0] != failing {
		t.Fatalf("OnError saw %v, want exactly the failing digest %s", reported, failing)
	}
	if len(calls) != 3 {
		t.Fatalf("stub ran %d points, want dispatch to stop after the failing third", len(calls))
	}
	for i, j := range jobs {
		_, ok := st.Lookup(j.Opt.Digest())
		if want := i < 2; ok != want {
			t.Errorf("job %d (%s) in store = %v, want %v", i, j.Key, ok, want)
		}
	}
	if stats.Executed != 2 || stats.Forked != 0 || stats.Warmups != 0 {
		t.Fatalf("failed campaign stats = %+v, want 2 executed, 0 forked, 0 warmups", stats)
	}

	calls = nil
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, stats, err := RunContext(ctx, Campaign{Jobs: jobs, Sim: stub("")}); err == nil {
		t.Fatal("cancelled stub campaign reported success")
	} else if len(calls) != 0 || stats.Executed != 0 {
		t.Fatalf("cancelled stub campaign ran %d points (stats %+v)", len(calls), stats)
	}
}

// BenchmarkStoreFlush measures the cost of persisting one fresh point once
// 500 are already recorded: the segment store appends one line, O(point)
// bytes per flush however large the table grows.
func BenchmarkStoreFlush(b *testing.B) {
	res := sim.Result{
		Workload:   "mcf",
		Mode:       config.ModeSecDDRCTR,
		IPC:        1.5,
		PerCoreIPC: []float64{0.4, 0.4, 0.35, 0.35},
	}
	const preload = 500

	b.Run("resultstore", func(b *testing.B) {
		st, err := resultstore.Open(filepath.Join(b.TempDir(), "store"), resultstore.Options{})
		if err != nil {
			b.Fatal(err)
		}
		defer st.Close()
		for i := 0; i < preload; i++ {
			if err := st.Record(fmt.Sprintf("pre%04d", i), res); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := st.Record(fmt.Sprintf("new%08d", i), res); err != nil {
				b.Fatal(err)
			}
		}
	})
}
