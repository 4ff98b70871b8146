package memctrl

import (
	"container/heap"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"secddr/internal/config"
	"secddr/internal/dram"
)

func testCfg() config.DRAM {
	d := config.Table1(config.ModeUnprotected).DRAM
	d.RefreshEnabled = false
	return d
}

func newCtl(t *testing.T, cfg config.DRAM) *Controller {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

// run ticks the controller until n reads complete or maxCycles pass.
func run(t *testing.T, c *Controller, n int, maxCycles int64) []Completion {
	t.Helper()
	var out []Completion
	for cyc := int64(0); cyc < maxCycles && len(out) < n; cyc++ {
		out = append(out, c.Tick(cyc)...)
	}
	if len(out) < n {
		t.Fatalf("only %d/%d reads completed in %d cycles: %v", len(out), n, maxCycles, c)
	}
	return out
}

func TestSingleReadCompletes(t *testing.T) {
	c := newCtl(t, testCfg())
	id, fwd, err := c.EnqueueRead(0x1000, 0)
	if err != nil || fwd {
		t.Fatalf("enqueue: id=%d fwd=%v err=%v", id, fwd, err)
	}
	comps := run(t, c, 1, 1000)
	if comps[0].ID != id {
		t.Errorf("completion id = %d, want %d", comps[0].ID, id)
	}
	// Idle-bank read latency: ACT + tRCD + tCL + burst, plus a few cycles of
	// scheduling. Must be at least tRCD+tCL+4 and far below 200.
	min := int64(22 + 22 + 4)
	if comps[0].Done < min || comps[0].Done > 200 {
		t.Errorf("read latency = %d, want in [%d, 200]", comps[0].Done, min)
	}
}

func TestRowHitFasterThanConflict(t *testing.T) {
	// Two reads in the same row: the second should complete quickly after
	// the first (row hit). A read to a different row in the same bank pays
	// PRE+ACT.
	cfgD := testCfg()
	c := newCtl(t, cfgD)
	c.EnqueueRead(0x0, 0)
	c.EnqueueRead(0x0+4096, 0) // same row (within 8KB row, different column)
	comps := run(t, c, 2, 2000)
	gap := comps[1].Done - comps[0].Done
	if gap > int64(cfgD.Timing.TCCDL)+8 {
		t.Errorf("row-hit gap = %d cycles, expected near tCCD", gap)
	}
}

func TestReadPriorityOverWrites(t *testing.T) {
	c := newCtl(t, testCfg())
	// A few writes then a read: the read should not wait for all writes.
	for i := 0; i < 8; i++ {
		if err := c.EnqueueWrite(uint64(i)*1<<20, 0); err != nil {
			t.Fatal(err)
		}
	}
	c.EnqueueRead(0x5000, 0)
	comps := run(t, c, 1, 2000)
	if c.WritesCompleted >= 8 {
		t.Errorf("all %d writes drained before the read completed at %d", c.WritesCompleted, comps[0].Done)
	}
}

func TestWriteDrainWatermark(t *testing.T) {
	cfgD := testCfg()
	c := newCtl(t, cfgD)
	high := int(float64(cfgD.WriteQueueEntries) * cfgD.WriteDrainHigh)
	for i := 0; i <= high; i++ {
		if err := c.EnqueueWrite(uint64(i)*128*64, 0); err != nil {
			t.Fatal(err)
		}
	}
	for cyc := int64(0); cyc < 5000 && c.WriteQueueLen() > 0; cyc++ {
		c.Tick(cyc)
	}
	if c.WriteQueueLen() != 0 {
		t.Fatalf("write queue not drained: %v", c)
	}
	if c.DrainEpisodes == 0 {
		t.Error("no drain episode recorded despite crossing high watermark")
	}
}

func TestReadForwardedFromWriteQueue(t *testing.T) {
	c := newCtl(t, testCfg())
	c.EnqueueWrite(0x2000, 0)
	_, fwd, err := c.EnqueueRead(0x2010, 0) // same line
	if err != nil {
		t.Fatal(err)
	}
	if !fwd {
		t.Error("read to pending write line not forwarded")
	}
	if c.ReadsForwarded != 1 {
		t.Errorf("ReadsForwarded = %d", c.ReadsForwarded)
	}
}

func TestWriteCoalescing(t *testing.T) {
	c := newCtl(t, testCfg())
	c.EnqueueWrite(0x3000, 0)
	c.EnqueueWrite(0x3020, 0) // same line
	if c.WriteQueueLen() != 1 {
		t.Errorf("write queue = %d entries, want 1 (coalesced)", c.WriteQueueLen())
	}
}

func TestQueueFullBackpressure(t *testing.T) {
	cfgD := testCfg()
	c := newCtl(t, cfgD)
	var err error
	for i := 0; i <= cfgD.ReadQueueEntries; i++ {
		_, _, err = c.EnqueueRead(uint64(i)*128*64, 0)
		if i < cfgD.ReadQueueEntries && err != nil {
			t.Fatalf("enqueue %d failed early: %v", i, err)
		}
	}
	if err != ErrQueueFull {
		t.Errorf("overfull enqueue error = %v, want ErrQueueFull", err)
	}
}

func TestAllReadsEventuallyComplete(t *testing.T) {
	c := newCtl(t, testCfg())
	want := make(map[uint64]bool)
	var cycle int64
	for i := 0; i < 200; i++ {
		// Mixed pattern: some row hits, some conflicts, both ranks.
		addr := uint64(i%7)*1<<21 + uint64(i)*64
		for {
			id, fwd, err := c.EnqueueRead(addr, cycle)
			if err == nil {
				if !fwd {
					want[id] = true
				}
				break
			}
			for _, comp := range c.Tick(cycle) {
				delete(want, comp.ID)
			}
			cycle++
		}
	}
	for len(want) > 0 && cycle < 200000 {
		for _, comp := range c.Tick(cycle) {
			delete(want, comp.ID)
		}
		cycle++
	}
	if len(want) != 0 {
		t.Fatalf("%d reads never completed", len(want))
	}
}

func TestRefreshProgress(t *testing.T) {
	cfgD := testCfg()
	cfgD.RefreshEnabled = true
	c := newCtl(t, cfgD)
	// Run past several tREFI windows with a trickle of reads; everything
	// must still complete and refreshes must be issued.
	var cycle int64
	completed := 0
	issued := 0
	for cycle = 0; cycle < 4*int64(cfgD.Timing.TREFI); cycle++ {
		if cycle%512 == 0 && c.CanEnqueueRead() {
			c.EnqueueRead(uint64(cycle)*64, cycle)
			issued++
		}
		completed += len(c.Tick(cycle))
	}
	if c.Channel().NumREF == 0 {
		t.Error("no refreshes issued across multiple tREFI windows")
	}
	if completed < issued-int(c.ReadQueueLen()) || completed == 0 {
		t.Errorf("reads completed = %d of %d issued", completed, issued)
	}
}

func TestAvgReadLatency(t *testing.T) {
	c := newCtl(t, testCfg())
	if c.AvgReadLatency() != 0 {
		t.Error("idle controller has nonzero avg latency")
	}
	c.EnqueueRead(0, 0)
	run(t, c, 1, 1000)
	if c.AvgReadLatency() <= 0 {
		t.Error("avg read latency not recorded")
	}
}

func TestIdle(t *testing.T) {
	c := newCtl(t, testCfg())
	if !c.Idle() {
		t.Error("fresh controller not idle")
	}
	c.EnqueueWrite(0x40, 0)
	if c.Idle() {
		t.Error("controller idle with queued write")
	}
	for cyc := int64(0); cyc < 2000 && !c.Idle(); cyc++ {
		c.Tick(cyc)
	}
	if !c.Idle() {
		t.Error("controller never drained the write")
	}
}

// refController is the previous per-request FR-FCFS controller, kept
// verbatim as a test-only oracle: arrival-ordered queues rescanned in full
// every cycle (two passes, an O(i) olderWantsRow check per conflict) and a
// separate issueBound rescan for the quiet span. The differential test
// drives it beside Controller, so a change to the FR-FCFS choice shows up
// here even though both share the dram model.
type refController struct {
	cfg    config.DRAM
	ch     *dram.Channel
	mapper *dram.AddressMapper

	readQ  []*Request
	writeQ []*Request

	draining  bool
	drainHigh int
	drainLow  int
	pending   completionHeap
	nextID    uint64

	quietUntil    int64
	quietDirty    bool
	eventDriven   bool
	lastIssueTick int64

	ReadsForwarded, ReadsCompleted, WritesCompleted uint64
	ReadLatencySum, DrainEpisodes                   uint64
}

func newRef(t *testing.T, cfg config.DRAM) *refController {
	t.Helper()
	ch, err := dram.NewChannel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mapper, err := dram.NewAddressMapper(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &refController{
		cfg: cfg, ch: ch, mapper: mapper,
		drainHigh: int(float64(cfg.WriteQueueEntries) * cfg.WriteDrainHigh),
		drainLow:  int(float64(cfg.WriteQueueEntries) * cfg.WriteDrainLow),
	}
}

func (c *refController) touch() { c.quietDirty = true }

func (c *refController) CanAccept(addr uint64, write bool) bool {
	lineAddr := addr &^ uint64(c.cfg.LineBytes-1)
	for _, w := range c.writeQ {
		if w.Addr == lineAddr {
			return true
		}
	}
	if write {
		return len(c.writeQ) < c.cfg.WriteQueueEntries
	}
	return len(c.readQ) < c.cfg.ReadQueueEntries
}

func (c *refController) EnqueueRead(addr uint64, now int64) (uint64, bool, error) {
	lineAddr := addr &^ uint64(c.cfg.LineBytes-1)
	for _, w := range c.writeQ {
		if w.Addr == lineAddr {
			c.ReadsForwarded++
			c.nextID++
			return c.nextID, true, nil
		}
	}
	if len(c.readQ) >= c.cfg.ReadQueueEntries {
		return 0, false, ErrQueueFull
	}
	c.nextID++
	_, loc := c.mapper.Map(lineAddr)
	req := &Request{ID: c.nextID, Addr: lineAddr, Arrival: now, loc: loc}
	c.readQ = append(c.readQ, req)
	c.noteEnqueued(req, dram.CmdRD, now)
	return c.nextID, false, nil
}

func (c *refController) EnqueueWrite(addr uint64, now int64) error {
	lineAddr := addr &^ uint64(c.cfg.LineBytes-1)
	for _, w := range c.writeQ {
		if w.Addr == lineAddr {
			return nil
		}
	}
	if len(c.writeQ) >= c.cfg.WriteQueueEntries {
		return ErrQueueFull
	}
	c.nextID++
	_, loc := c.mapper.Map(lineAddr)
	req := &Request{ID: c.nextID, Addr: lineAddr, Write: true, Arrival: now, loc: loc}
	c.writeQ = append(c.writeQ, req)
	c.noteEnqueued(req, dram.CmdWR, now)
	return nil
}

func (c *refController) noteEnqueued(req *Request, col dram.Command, now int64) {
	if !c.eventDriven || c.quietDirty {
		c.quietDirty = true
		return
	}
	if !c.draining && len(c.writeQ) >= c.drainHigh {
		c.quietDirty = true
		return
	}
	if t := c.nextIssuable(req, col, now-1); t < c.quietUntil {
		c.quietUntil = t
	}
}

func (c *refController) Tick(now int64) []Completion {
	var done []Completion
	for c.pending.Len() > 0 && c.pending[0].Done <= now {
		done = append(done, heap.Pop(&c.pending).(Completion))
	}
	if c.eventDriven && !c.quietDirty && c.quietUntil > now {
		return done
	}
	if c.issueOne(now) {
		if c.eventDriven && c.lastIssueTick != now-1 {
			c.quietUntil = c.issueBound(now)
			c.quietDirty = false
		} else {
			c.quietDirty = true
		}
		c.lastIssueTick = now
	} else if c.eventDriven {
		c.quietUntil = c.issueBound(now)
		c.quietDirty = false
	}
	return done
}

func (c *refController) issueBound(now int64) int64 {
	if (!c.draining && len(c.writeQ) >= c.drainHigh) || (c.draining && len(c.writeQ) <= c.drainLow) {
		return now + 1
	}
	next := int64(1) << 62
	for r := 0; r < c.cfg.Ranks; r++ {
		if c.ch.RefreshDue(r, now+1) {
			if t := c.nextRefreshStep(r, now); t < next {
				next = t
			}
			continue
		}
		if nr := c.ch.NextRefresh(r); nr < next {
			next = nr
		}
	}
	for _, req := range c.readQ {
		t := c.nextIssuable(req, dram.CmdRD, now)
		if t <= now+1 {
			return now + 1
		}
		if t < next {
			next = t
		}
	}
	for _, req := range c.writeQ {
		t := c.nextIssuable(req, dram.CmdWR, now)
		if t <= now+1 {
			return now + 1
		}
		if t < next {
			next = t
		}
	}
	if next <= now {
		next = now + 1
	}
	return next
}

func (c *refController) nextRefreshStep(r int, now int64) int64 {
	next := int64(1) << 62
	anyOpen := false
	for bg := 0; bg < c.cfg.BankGroups; bg++ {
		for b := 0; b < c.cfg.BanksPerGroup(); b++ {
			loc := dram.Loc{Rank: r, BankGroup: bg, Bank: b}
			if _, open := c.ch.OpenRow(loc); open {
				anyOpen = true
				if t := c.ch.EarliestIssue(dram.CmdPRE, loc, now+1); t < next {
					next = t
				}
			}
		}
	}
	if anyOpen {
		return next
	}
	return c.ch.EarliestIssue(dram.CmdREF, dram.Loc{Rank: r}, now+1)
}

func (c *refController) nextIssuable(req *Request, col dram.Command, now int64) int64 {
	row, open := c.ch.OpenRow(req.loc)
	switch {
	case open && row == req.loc.Row:
		return c.ch.EarliestIssue(col, req.loc, now+1)
	case open:
		return c.ch.EarliestIssue(dram.CmdPRE, req.loc, now+1)
	default:
		return c.ch.EarliestIssue(dram.CmdACT, req.loc, now+1)
	}
}

func (c *refController) issueOne(now int64) bool {
	refreshBlocked := make(map[int]bool, c.cfg.Ranks)
	for r := 0; r < c.cfg.Ranks; r++ {
		if !c.ch.RefreshDue(r, now) {
			continue
		}
		refreshBlocked[r] = true
		if c.tryRefresh(r, now) {
			return true
		}
	}
	if !c.draining && len(c.writeQ) >= c.drainHigh {
		c.draining = true
		c.DrainEpisodes++
		c.touch()
	}
	if c.draining && len(c.writeQ) <= c.drainLow {
		c.draining = false
		c.touch()
	}
	primary, secondary := c.readQ, c.writeQ
	primaryIsWrite := false
	if c.draining || len(c.readQ) == 0 {
		primary, secondary = c.writeQ, c.readQ
		primaryIsWrite = true
	}
	if c.scheduleFrom(primary, primaryIsWrite, refreshBlocked, now) {
		return true
	}
	return c.scheduleFrom(secondary, !primaryIsWrite, refreshBlocked, now)
}

func (c *refController) tryRefresh(r int, now int64) bool {
	anyOpen := false
	for bg := 0; bg < c.cfg.BankGroups; bg++ {
		for b := 0; b < c.cfg.BanksPerGroup(); b++ {
			loc := dram.Loc{Rank: r, BankGroup: bg, Bank: b}
			if _, open := c.ch.OpenRow(loc); open {
				anyOpen = true
				if c.ch.CanIssue(dram.CmdPRE, loc, now) {
					c.ch.Issue(dram.CmdPRE, loc, now)
					c.touch()
					return true
				}
			}
		}
	}
	if anyOpen {
		return false
	}
	loc := dram.Loc{Rank: r}
	if c.ch.CanIssue(dram.CmdREF, loc, now) {
		c.ch.Issue(dram.CmdREF, loc, now)
		c.touch()
		return true
	}
	return false
}

func (c *refController) scheduleFrom(q []*Request, isWrite bool, blocked map[int]bool, now int64) bool {
	col := dram.CmdRD
	if isWrite {
		col = dram.CmdWR
	}
	for i, req := range q {
		if blocked[req.loc.Rank] {
			continue
		}
		row, open := c.ch.OpenRow(req.loc)
		if open && row == req.loc.Row && c.ch.CanIssue(col, req.loc, now) {
			c.issueColumn(req, col, i, isWrite, now)
			return true
		}
	}
	for i, req := range q {
		if blocked[req.loc.Rank] {
			continue
		}
		row, open := c.ch.OpenRow(req.loc)
		switch {
		case open && row == req.loc.Row:
			continue
		case open:
			if refOlderWantsRow(q[:i], req.loc, row) {
				continue
			}
			if c.ch.CanIssue(dram.CmdPRE, req.loc, now) {
				c.ch.Issue(dram.CmdPRE, req.loc, now)
				c.ch.RecordRowOutcome(false, true)
				c.touch()
				return true
			}
		default:
			if c.ch.CanIssue(dram.CmdACT, req.loc, now) {
				c.ch.Issue(dram.CmdACT, req.loc, now)
				c.ch.RecordRowOutcome(false, false)
				c.touch()
				return true
			}
		}
	}
	return false
}

func refOlderWantsRow(older []*Request, loc dram.Loc, openRow uint32) bool {
	for _, r := range older {
		if r.loc.Rank == loc.Rank && r.loc.BankGroup == loc.BankGroup &&
			r.loc.Bank == loc.Bank && r.loc.Row == openRow {
			return true
		}
	}
	return false
}

func (c *refController) issueColumn(req *Request, col dram.Command, idx int, isWrite bool, now int64) {
	c.touch()
	done := c.ch.Issue(col, req.loc, now)
	c.ch.RecordRowOutcome(true, false)
	if isWrite {
		c.writeQ = append(c.writeQ[:idx], c.writeQ[idx+1:]...)
		c.WritesCompleted++
		return
	}
	c.readQ = append(c.readQ[:idx], c.readQ[idx+1:]...)
	c.ReadsCompleted++
	c.ReadLatencySum += uint64(done - req.Arrival)
	heap.Push(&c.pending, Completion{ID: req.ID, Addr: req.Addr, Done: done})
}

func (c *refController) DebugState() string {
	var s strings.Builder
	fmt.Fprintf(&s, "drain=%v q=[", c.draining)
	for _, r := range c.readQ {
		fmt.Fprintf(&s, "R%d@%v ", r.ID, r.loc)
	}
	for _, w := range c.writeQ {
		fmt.Fprintf(&s, "W%d@%v ", w.ID, w.loc)
	}
	return s.String() + "] ch=" + c.ch.DebugState()
}

// TestSchedulerMatchesReference drives the per-bank controller and the
// per-request reference cycle by cycle with the same seeded random stream
// and requires identical enqueue results, completions, channel counters,
// statistics and DebugState at every cycle. The geometries cover one
// bank mask word (Table I DDR4, 32 flat banks; DDR5, 64) and more than one
// (4-rank DDR5, 128); the streams mix row hits, conflicts, forwarding and
// coalescing, with refresh on and off, eWCRC write bursts, event-driven
// quiet spans on and off, and a mid-stream clone that must keep pace.
func TestSchedulerMatchesReference(t *testing.T) {
	ddr4 := config.Table1(config.ModeUnprotected).DRAM
	ddr5 := config.Table1DDR5(config.ModeUnprotected).DRAM
	ddr5x4 := ddr5
	ddr5x4.Ranks = 4
	ddr5x4.CapacityBytes *= 2
	ewcrc := config.Table1(config.ModeSecDDRCTR).DRAM
	if ewcrc.WriteBurstBeats == ddr4.WriteBurstBeats {
		t.Fatalf("eWCRC config has no longer write burst: %d beats", ewcrc.WriteBurstBeats)
	}
	geoms := []struct {
		name string
		cfg  config.DRAM
	}{{"ddr4", ddr4}, {"ddr4-ewcrc", ewcrc}, {"ddr5", ddr5}, {"ddr5-4rank", ddr5x4}}
	seed := int64(0)
	for _, g := range geoms {
		for _, refresh := range []bool{false, true} {
			for _, event := range []bool{false, true} {
				seed++
				cfg := g.cfg
				cfg.RefreshEnabled = refresh
				// A short refresh interval puts several refresh
				// sequences, each racing queued requests, in a short run.
				cfg.Timing.TREFI = 2000
				seed := seed
				t.Run(fmt.Sprintf("%s/refresh=%v/event=%v", g.name, refresh, event), func(t *testing.T) {
					t.Parallel()
					diffRun(t, cfg, event, 6000, seed)
				})
			}
		}
	}
}

func diffRun(t *testing.T, cfg config.DRAM, event bool, cycles, seed int64) {
	ref := newRef(t, cfg)
	ref.eventDriven = event
	ctl := newCtl(t, cfg)
	ctl.SetEventDriven(event)
	if got := cfg.Ranks * cfg.Banks; len(ctl.readQ.busy) != (got+63)/64 {
		t.Fatalf("%d flat banks in %d mask words", got, len(ctl.readQ.busy))
	}
	ctls := []*Controller{ctl}
	rng := rand.New(rand.NewSource(seed))
	// A small pool of rows per bank makes hits, conflicts and repeated
	// lines (forwarding, coalescing) all common.
	lines := make([]uint64, 512)
	for i := range lines {
		lines[i] = ref.mapper.Unmap(0, dram.Loc{
			Rank:      rng.Intn(cfg.Ranks),
			BankGroup: rng.Intn(cfg.BankGroups),
			Bank:      rng.Intn(cfg.BanksPerGroup()),
			Row:       uint32(rng.Intn(3)),
			Col:       uint32(rng.Intn(16)),
		})
	}
	var last string
	for now := int64(0); now < cycles; now++ {
		if now == cycles/3 {
			ctls = append(ctls, ctl.Clone())
		}
		// Bursty arrivals: phases of heavy traffic fill both queues (and
		// cross the drain watermarks); quiet phases let them drain.
		rate := 4
		if (now/1000)%2 == 1 {
			rate = 40
		}
		for k := 0; k < 2 && rng.Intn(rate) == 0; k++ {
			addr := lines[rng.Intn(len(lines))] + uint64(rng.Intn(cfg.LineBytes))
			write := rng.Intn(3) == 0
			acc := ref.CanAccept(addr, write)
			var want string
			if write {
				want = fmt.Sprint(ref.EnqueueWrite(addr, now))
			} else {
				id, fwd, err := ref.EnqueueRead(addr, now)
				want = fmt.Sprint(id, fwd, err)
			}
			for _, c := range ctls {
				if c.CanAccept(addr, write) != acc {
					t.Fatalf("cycle %d: CanAccept(%#x, %v) != %v", now, addr, write, acc)
				}
				var got string
				if write {
					got = fmt.Sprint(c.EnqueueWrite(addr, now))
				} else {
					id, fwd, err := c.EnqueueRead(addr, now)
					got = fmt.Sprint(id, fwd, err)
				}
				if got != want {
					t.Fatalf("cycle %d: enqueue(%#x, write=%v) = %s, reference %s", now, addr, write, got, want)
				}
			}
		}
		wantDone := fmt.Sprint(ref.Tick(now))
		wantCnt := ref.ch.Counters()
		wantStats := fmt.Sprint(ref.ReadsForwarded, ref.ReadsCompleted, ref.WritesCompleted,
			ref.ReadLatencySum, ref.DrainEpisodes, ref.draining, len(ref.readQ), len(ref.writeQ))
		// DebugState is costly to render, and the reference's can change
		// only through an enqueue, an issued command (every one bumps a
		// counter) or a drain toggle (in the stats): compare it whenever
		// one happened, and the counters and stats on every cycle.
		var wantState string
		if changed := wantStats + fmt.Sprint(wantCnt.ACT, wantCnt.PRE, wantCnt.RD, wantCnt.WR, wantCnt.REF, ref.nextID); changed != last {
			wantState, last = ref.DebugState(), changed
		}
		for i, c := range ctls {
			done := c.Tick(now)
			if got := fmt.Sprint(done); got != wantDone {
				t.Fatalf("cycle %d ctl %d: completions %s, reference %s", now, i, got, wantDone)
			}
			if got := c.Channel().Counters(); !reflect.DeepEqual(got, wantCnt) {
				t.Fatalf("cycle %d ctl %d: counters %+v, reference %+v", now, i, got, wantCnt)
			}
			got := fmt.Sprint(c.ReadsForwarded, c.ReadsCompleted, c.WritesCompleted,
				c.ReadLatencySum, c.DrainEpisodes, c.Draining(), c.ReadQueueLen(), c.WriteQueueLen())
			if got != wantStats {
				t.Fatalf("cycle %d ctl %d: stats %s, reference %s", now, i, got, wantStats)
			}
			if wantState == "" {
				continue
			}
			if got := c.DebugState(); got != wantState {
				t.Fatalf("cycle %d ctl %d: state\n%s\nreference\n%s", now, i, got, wantState)
			}
		}
	}
	if ref.ReadsCompleted == 0 || ref.WritesCompleted == 0 || ref.DrainEpisodes == 0 || ref.ReadsForwarded == 0 {
		t.Fatalf("stream too tame: reads %d writes %d drains %d forwarded %d",
			ref.ReadsCompleted, ref.WritesCompleted, ref.DrainEpisodes, ref.ReadsForwarded)
	}
	if cfg.RefreshEnabled && ref.ch.NumREF == 0 {
		t.Fatal("no refresh issued")
	}
	if c := ref.ch.Counters(); c.RowHits == 0 || c.RowConflicts == 0 || c.RowMisses == 0 {
		t.Fatalf("stream lacks a row outcome: %+v", c)
	}
}
