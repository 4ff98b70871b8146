package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"reflect"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"secddr/internal/sim"
)

func TestAttributeToModules(t *testing.T) {
	cases := []struct {
		frames []string
		want   string
	}{
		{[]string{"secddr/internal/memctrl.(*Controller).scheduleFrom", "secddr/internal/secmem.(*Engine).Tick"}, "memctrl"},
		// Runtime and standard-library leaves count against their caller.
		{[]string{"runtime.mapaccess2", "secddr/internal/dram.(*Channel).EarliestIssue", "secddr/internal/memctrl.(*Controller).Tick"}, "dram"},
		{[]string{"encoding/json.Marshal", "secddr/internal/resultstore.(*Store).Record"}, "resultstore"},
		// Sub-packages belong to their module.
		{[]string{"secddr/internal/resultstore/flock.LockFile"}, "resultstore"},
		// A GC assist inside a simulator frame is GC work.
		{[]string{"runtime.scanobject", "runtime.gcAssistAlloc", "runtime.mallocgc", "secddr/internal/sim.(*system).fork"}, "gc"},
		{[]string{"runtime.gcBgMarkWorker"}, "gc"},
		// Serving goroutines run outside any module frame.
		{[]string{"net/http.(*conn).readRequest", "net/http.(*conn).serve"}, "service"},
		{[]string{"runtime.futex", "runtime.findRunnable"}, "other"},
		{[]string{"main.replayLayers"}, "other"},
	}
	for _, c := range cases {
		if got := attribute(c.frames); got != c.want {
			t.Errorf("attribute(%q) = %q, want %q", c.frames, got, c.want)
		}
	}
}

func TestLayerSharesWeighByNanos(t *testing.T) {
	shares := layerShares([]stack{
		{frames: []string{"secddr/internal/memctrl.f"}, nanos: 30},
		{frames: []string{"secddr/internal/dram.g"}, nanos: 10},
		{frames: []string{"secddr/internal/memctrl.h"}, nanos: 50},
		{frames: []string{"runtime.futex"}, nanos: 10},
	})
	want := map[string]float64{"memctrl": 0.8, "dram": 0.1, "other": 0.1}
	if !reflect.DeepEqual(shares, want) {
		t.Fatalf("layerShares = %v, want %v", shares, want)
	}
}

// spin burns CPU in a function of this package until d has passed.
func spin(d time.Duration) int {
	n := 0
	for start := time.Now(); time.Since(start) < d; n++ {
		n += n % 7
	}
	return n
}

func TestParseCPUProfileFromRuntime(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	stacks, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	found := false
	for _, s := range stacks {
		total += s.nanos
		for _, f := range s.frames {
			if f == "secddr/sweepbench.spin" || strings.HasSuffix(f, ".spin") {
				found = true
			}
		}
	}
	if len(stacks) == 0 || total <= 0 {
		t.Fatalf("no samples decoded from a %d-byte profile", buf.Len())
	}
	if !found {
		t.Errorf("no sample names the spinning function; first stack %q", stacks[0].frames)
	}
	if _, err := parseCPUProfile([]byte("not gzip")); err == nil {
		t.Error("garbage profile decoded without error")
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		// Two overlapping children cover [10, 50]; a third is clipped to
		// the parent's end.
		{ID: 2, Parent: 1, Name: "point", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "point", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "late", Start: 90, End: 120},
		{ID: 5, Parent: 2, Name: "record", Start: 12, End: 14},
	}
	self := selfTimes(spans)
	want := map[int64]int64{1: 100 - 40 - 10, 2: 20 - 2, 3: 30, 4: 30, 5: 2}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("selfTimes = %v, want %v", self, want)
	}
	byName := selfByName(spans)
	if got := byName["point"]; math.Abs(got-48e-9) > 1e-15 {
		t.Errorf("self time of point spans = %g s, want 48 ns", got)
	}
}

func TestTracerNilRecordsNothing(t *testing.T) {
	var tr *Tracer
	end, id := tr.Begin("x", "", 0)
	end()
	if id != 0 || tr.Spans() != nil {
		t.Fatal("nil tracer recorded a span")
	}
	tr = newTracer()
	endA, a := tr.Begin("a", "k", 0)
	endB, _ := tr.Begin("b", "", a)
	endB()
	endA()
	spans := tr.Spans()
	if len(spans) != 2 || spans[0].Name != "a" || spans[1].Parent != a || spans[0].Key != "k" {
		t.Fatalf("spans = %+v", spans)
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n      int
		want   float64
		wantOK bool
	}{
		{9, 0, false},
		{39, 0, false},
		{40, 75, true},
		{99, 75, true},
		{100, 90, true},
		{199, 90, true},
		{200, 95, true},
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
	}
	for _, c := range cases {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.wantOK {
			t.Errorf("tailPercentile(%d) = %g, %v; want %g, %v", c.n, got, ok, c.want, c.wantOK)
		}
	}
}

func TestMedianAndPercentile(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %g", got)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	if got := percentile(xs, 90); got != 90 {
		t.Errorf("p90 of 1..100 = %g", got)
	}
}

func TestHistQuantileMergesServers(t *testing.T) {
	inf := math.Inf(1)
	// Server A: 10 samples <= 1, 10 in (1, 3]. Server B elides its empty
	// upper buckets: 20 samples <= 1.
	a := []bucket{{1, 10}, {3, 20}, {inf, 20}}
	b := []bucket{{1, 20}, {inf, 20}}
	h := [][]bucket{a, b}
	if got := histQuantile(h, 0.5); got != 1 {
		t.Errorf("p50 = %g, want 1", got)
	}
	if got := histQuantile(h, 0.9); got != 3 {
		t.Errorf("p90 = %g, want 3", got)
	}
	if got := histQuantile(nil, 0.5); got != 0 {
		t.Errorf("empty p50 = %g", got)
	}
}

// mapStore is an in-memory harness.Store.
type mapStore struct {
	m   map[string]sim.Result
	err error
}

func (s *mapStore) Lookup(d string) (sim.Result, bool) { r, ok := s.m[d]; return r, ok }
func (s *mapStore) Record(d string, r sim.Result) error {
	if s.err != nil {
		return s.err
	}
	s.m[d] = r
	return nil
}

func TestTimedStorePassesThrough(t *testing.T) {
	inner := &mapStore{m: map[string]sim.Result{}}
	ts := &timedStore{inner: inner, tracer: newTracer()}
	res := sim.Result{Workload: "mcf", IPC: 1.25, PerCoreIPC: []float64{0.5, 0.75}, DRAMReads: 7}

	if _, ok := ts.Lookup("d1"); ok {
		t.Fatal("lookup of an empty store hit")
	}
	if err := ts.Record("d1", res); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(inner.m["d1"], res) {
		t.Fatalf("inner store got %+v, want %+v", inner.m["d1"], res)
	}
	got, ok := ts.Lookup("d1")
	if !ok || !reflect.DeepEqual(got, res) {
		t.Fatalf("Lookup = %+v, %v; want %+v, true", got, ok, res)
	}

	inner.err = errors.New("disk full")
	if err := ts.Record("d2", res); !errors.Is(err, inner.err) {
		t.Fatalf("Record error = %v, want the inner store's", err)
	}
	if ts.lookups.Load() != 2 || ts.hits.Load() != 1 || ts.records.Load() != 2 {
		t.Errorf("counts lookups=%d hits=%d records=%d, want 2 1 2", ts.lookups.Load(), ts.hits.Load(), ts.records.Load())
	}
	if n := len(ts.tracer.Spans()); n != 4 {
		t.Errorf("%d spans, want one per call (4)", n)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json at the repository root in
// step with the metrics and workloads this program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.ReplaceAll(workloadNames(), ", ", ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, program %s", got, want)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

// TestSetupTearsDownServer checks that a served set-up and its close leave
// no goroutines behind, so repeated set-ups in one run measure the same
// thing each time.
func TestSetupTearsDownServer(t *testing.T) {
	w, _ := workloadByName("served-mixed")
	r, err := newRunner(options{seed: 1, buildDir: t.TempDir()}, w.smokeScale())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.setupTimes(1); err != nil { // warm lazily started runtime goroutines
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	if _, err := r.setupTimes(20); err != nil {
		t.Fatal(err)
	}
	after := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); after > before && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
		after = runtime.NumGoroutine()
	}
	if after > before {
		t.Fatalf("%d goroutines before 20 set-ups, %d after", before, after)
	}
}

// TestRecordedSHACoversSeeds checks that every workload has a recorded
// results hash at seed 1 and the held-out seeds 101-110, and at seed 1 at
// the smoke scale, so runs at those seeds are always checked against one.
func TestRecordedSHACoversSeeds(t *testing.T) {
	seeds := []uint64{1, 101, 102, 103, 104, 105, 106, 107, 108, 109, 110}
	for _, w := range workloads {
		for _, s := range seeds {
			if h := recordedSHA[w.shaKey()][s]; len(h) != 64 {
				t.Errorf("%s seed %d: recorded hash %q", w.shaKey(), s, h)
			}
		}
		if h := recordedSHA[w.smokeScale().shaKey()][1]; len(h) != 64 {
			t.Errorf("%s seed 1: recorded hash %q", w.smokeScale().shaKey(), h)
		}
	}
	if len(recordedSHA) != 2*len(workloads) {
		t.Errorf("recordedSHA has %d entries, want %d", len(recordedSHA), 2*len(workloads))
	}
}
