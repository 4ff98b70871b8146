package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"secddr/internal/harness"
	"secddr/internal/sim"
)

// Span is one timed call the benchmark made into a layer. Times are
// nanoseconds since the tracer started; Parent is 0 for a root span.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Key    string `json:"key,omitempty"` // point digest, sweep key, ...
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer records
// nothing, so untraced runs pay only a nil check per boundary.
type Tracer struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []Span
}

func newTracer() *Tracer { return &Tracer{t0: time.Now()} }

// Begin opens a span and returns the function that closes it, plus the
// span's id for use as a parent.
func (t *Tracer) Begin(name, key string, parent int64) (end func(), id int64) {
	if t == nil {
		return func() {}, 0
	}
	id = t.next.Add(1)
	start := time.Since(t.t0).Nanoseconds()
	return func() {
		s := Span{ID: id, Parent: parent, Name: name, Key: key, Start: start, End: time.Since(t.t0).Nanoseconds()}
		t.mu.Lock()
		t.spans = append(t.spans, s)
		t.mu.Unlock()
	}, id
}

// Spans returns the closed spans in start order.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]Span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// WriteJSON writes the closed spans as one JSON array.
func (t *Tracer) WriteJSON(w io.Writer) error {
	return json.NewEncoder(w).Encode(t.Spans())
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by its children. Children may overlap one another
// (points run on parallel workers), so the covered part is the length of
// the union of the children's intervals, clipped to the parent's.
func selfTimes(spans []Span) map[int64]int64 {
	kids := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = (s.End - s.Start) - covered(kids[s.ID], s.Start, s.End)
	}
	return self
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	var clipped [][2]int64
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a < b {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, curA, curB int64
	have := false
	for _, iv := range clipped {
		switch {
		case !have:
			curA, curB, have = iv[0], iv[1], true
		case iv[0] <= curB:
			curB = max(curB, iv[1])
		default:
			total += curB - curA
			curA, curB = iv[0], iv[1]
		}
	}
	if have {
		total += curB - curA
	}
	return total
}

// selfByName sums self time per span name, in seconds.
func selfByName(spans []Span) map[string]float64 {
	self := selfTimes(spans)
	out := make(map[string]float64)
	for _, s := range spans {
		out[s.Name] += float64(self[s.ID]) / 1e9
	}
	return out
}

// timedStore wraps a harness.Store, timing and counting every Lookup and
// Record and passing arguments and results through unchanged.
type timedStore struct {
	inner  harness.Store
	tracer *Tracer
	parent atomic.Int64 // span the calls belong to; 0 means root

	lookups, hits, records   atomic.Int64
	lookupNanos, recordNanos atomic.Int64
}

func (s *timedStore) Lookup(digest string) (sim.Result, bool) {
	end, _ := s.tracer.Begin("resultstore.Lookup", digest, s.parent.Load())
	t := time.Now()
	res, ok := s.inner.Lookup(digest)
	s.lookupNanos.Add(time.Since(t).Nanoseconds())
	end()
	s.lookups.Add(1)
	if ok {
		s.hits.Add(1)
	}
	return res, ok
}

func (s *timedStore) Record(digest string, res sim.Result) error {
	end, _ := s.tracer.Begin("resultstore.Record", digest, s.parent.Load())
	t := time.Now()
	err := s.inner.Record(digest, res)
	s.recordNanos.Add(time.Since(t).Nanoseconds())
	end()
	s.records.Add(1)
	return err
}
