// Package memctrl implements the memory controller from Table I of the
// paper: 64-entry read and write queues per channel, FR-FCFS scheduling
// with row-hit-first and read-over-write priority, watermark-based write
// draining, read-around-write forwarding, and refresh management. It drives
// the cycle-level dram.Channel command interface.
//
// Each queue is indexed per bank, as in Ramulator and DRAMSim3: one
// arrival-ordered list per flat bank (rank*Banks + bankGroup*banksPerGroup
// + bank) plus a bitmask of the non-empty lists. Command legality depends
// on bank, rank and bus timing, never on the row or column, so FR-FCFS
// needs at most two candidates per bank: the oldest request hitting the
// open row (column command), and the oldest request if it is not a hit
// (PRE on a conflict, ACT on a closed bank). Younger hits and younger
// conflicts or ACTs are ready exactly when these are, and a conflict queued
// behind an older hit never issues (precharging would close a row an older
// request still needs). The oldest ready candidate is therefore the
// request a per-request row-hit-first scan would pick: the command stream
// is byte-identical to that scan's.
//
// Each queue caches, per bank, its two candidates with their bank-local
// ready cycles (dram.Channel.LocalReady). A bank's entry is recomputed
// only when its list changes (enqueue, column issue) or a command is
// issued to that bank, from either queue or the refresh sequence: those
// are the only events that move the bank's open row, its local ready
// cycles, or which requests are its candidates. Every other command moves
// only shared horizons, which one dram.Channel.Horizons call per scan
// supplies. A candidate's earliest issue cycle is then the max of its
// cached local cycle and its bank group's horizon, exactly EarliestIssue.
// External channel mutation would bypass this invalidation rule, so it
// goes through the controller: AdoptChannelState requires empty queues,
// and SkipRefreshTo moves only refresh deadlines, which no entry holds.
//
// One pass per queue evaluates each candidate's earliest issue cycle once.
// That value both picks the winner (ready now, oldest ID) and, when
// nothing issues, bounds the next cycle anything could (see Tick). The
// bound skips conflicts behind an older hit and ranks awaiting refresh yet
// stays conservative: such a conflict can act only after the older hit
// issues, and a blocked rank only after its refresh steps, both covered.
package memctrl

import (
	"container/heap"
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"secddr/internal/config"
	"secddr/internal/dram"
)

// ErrQueueFull is returned when the target queue has no free entry; the
// caller must apply backpressure and retry.
var ErrQueueFull = errors.New("memctrl: queue full")

// never is the far-future sentinel for "no such cycle".
const never = int64(1) << 62

// sparseQueued is the queue occupancy (reads plus writes) up to which Tick
// probes the gap after an isolated command: on mcf, a quarter of probes at
// 4-7 queued requests found work the next cycle, over half at 16 or more.
const sparseQueued = 8

// Request is one line-granularity memory request.
type Request struct {
	ID      uint64
	Addr    uint64
	Write   bool
	Arrival int64 // memory cycle at enqueue
	loc     dram.Loc
}

// Completion reports a finished read.
type Completion struct {
	ID   uint64
	Addr uint64
	Done int64 // memory cycle the data burst completed
}

// queue is one request queue indexed per flat bank.
type queue struct {
	col   dram.Command // column command its requests need: RD or WR
	banks [][]Request  // per flat bank, arrival (= ID) order
	cands []bankCands  // per flat bank; valid while banks[b] is non-empty
	busy  []uint64     // bit b set iff banks[b] is non-empty
	n     int
}

// bankCands caches one bank list's FR-FCFS candidates: slot 0 its oldest
// row hit (column command), slot 1 its oldest request when that is not a
// hit (PRE on a conflict, ACT on a closed bank). Each slot holds the
// command, its request's list index and ID, the dram.Horizon index the
// command reads, and the bank-local ready cycle; an empty slot has
// t = never.
type bankCands struct {
	t     [2]int64
	id    [2]uint64
	cmd   [2]dram.Command
	idx   [2]int32
	hz    [2]uint8
	group int32 // flat bank group: rank*BankGroups + bankGroup
}

func newQueue(col dram.Command, cfg config.DRAM) queue {
	nbanks := cfg.Ranks * cfg.Banks
	q := queue{col: col, banks: make([][]Request, nbanks), cands: make([]bankCands, nbanks),
		busy: make([]uint64, (nbanks+63)/64)}
	for b := range q.cands {
		q.cands[b].group = int32(b / cfg.BanksPerGroup())
	}
	return q
}

func (q *queue) push(b int, r Request) {
	q.banks[b] = append(q.banks[b], r)
	q.busy[b>>6] |= 1 << (b & 63)
	q.n++
}

func (q *queue) remove(b, i int) {
	q.banks[b] = append(q.banks[b][:i], q.banks[b][i+1:]...)
	if len(q.banks[b]) == 0 {
		q.busy[b>>6] &^= 1 << (b & 63)
	}
	q.n--
}

// has reports whether bank b's list holds a request for lineAddr.
func (q *queue) has(b int, lineAddr uint64) bool {
	for i := range q.banks[b] {
		if q.banks[b][i].Addr == lineAddr {
			return true
		}
	}
	return false
}

// Controller owns one channel.
type Controller struct {
	cfg    config.DRAM
	ch     *dram.Channel
	mapper *dram.AddressMapper

	readQ  queue
	writeQ queue
	hor    []dram.Horizon // scan's scratch: per flat bank group

	draining  bool
	drainHigh int // write-drain high watermark, in queue entries
	drainLow  int // write-drain low watermark, in queue entries
	pending   completionHeap
	nextID    uint64
	doneBuf   []Completion // reused backing array for Tick's return value

	// quietUntil memoizes the issue-side bound Tick computes after a no-op
	// scheduler scan: no command can issue before it, so scans are skipped
	// until the clock reaches it or the issue state mutates (quietDirty,
	// set by every enqueue, issued command, and drain toggle — but not by
	// completion pops, which never change issue legality). Maintained and
	// consulted only in event-driven mode.
	quietUntil    int64
	quietDirty    bool
	eventDriven   bool
	lastIssueTick int64 // cycle of the most recent issued command

	// Stats.
	ReadsEnqueued   uint64
	WritesEnqueued  uint64
	ReadsForwarded  uint64 // reads served from the write queue
	ReadLatencySum  uint64 // memory cycles, enqueue to data
	ReadsCompleted  uint64
	WritesCompleted uint64
	DrainEpisodes   uint64
}

// New constructs a controller with a fresh channel for cfg.
func New(cfg config.DRAM) (*Controller, error) {
	ch, err := dram.NewChannel(cfg)
	if err != nil {
		return nil, err
	}
	mapper, err := dram.NewAddressMapper(cfg)
	if err != nil {
		return nil, err
	}
	return &Controller{
		cfg:    cfg,
		ch:     ch,
		mapper: mapper,
		readQ:  newQueue(dram.CmdRD, cfg),
		writeQ: newQueue(dram.CmdWR, cfg),
		hor:    make([]dram.Horizon, cfg.Ranks*cfg.BankGroups),
		// The hysteresis thresholds are derived once: the quiet-span
		// machinery and the scheduler must agree on them exactly, or
		// event-driven runs would diverge from the reference loop.
		drainHigh: int(float64(cfg.WriteQueueEntries) * cfg.WriteDrainHigh),
		drainLow:  int(float64(cfg.WriteQueueEntries) * cfg.WriteDrainLow),
	}, nil
}

// Channel exposes the underlying DRAM channel (stats, tests).
func (c *Controller) Channel() *dram.Channel { return c.ch }

// Mapper exposes the address mapper.
func (c *Controller) Mapper() *dram.AddressMapper { return c.mapper }

// ReadQueueLen and WriteQueueLen return current occupancies.
func (c *Controller) ReadQueueLen() int { return c.readQ.n }

// WriteQueueLen returns the current write-queue occupancy.
func (c *Controller) WriteQueueLen() int { return c.writeQ.n }

// CanEnqueueRead reports whether a read slot is free.
func (c *Controller) CanEnqueueRead() bool { return c.readQ.n < c.cfg.ReadQueueEntries }

// CanEnqueueWrite reports whether a write slot is free.
func (c *Controller) CanEnqueueWrite() bool { return c.writeQ.n < c.cfg.WriteQueueEntries }

// touch records an issue-side state mutation: it invalidates the quiet
// bound so the next Tick re-evaluates the scheduler.
func (c *Controller) touch() { c.quietDirty = true }

// locate maps addr to its line address, DRAM location and flat bank.
func (c *Controller) locate(addr uint64) (uint64, dram.Loc, int) {
	lineAddr := addr &^ uint64(c.cfg.LineBytes-1)
	_, loc := c.mapper.Map(lineAddr)
	return lineAddr, loc, c.flatBank(loc)
}

// flatBank returns loc's flat bank: rank*Banks + bankGroup*banksPerGroup +
// bank.
func (c *Controller) flatBank(loc dram.Loc) int {
	return loc.Rank*c.cfg.Banks + loc.BankGroup*c.cfg.BanksPerGroup() + loc.Bank
}

// CanAccept reports, without mutating any state, whether an enqueue of
// (addr, write) would succeed right now: a free queue slot, a write-queue
// coalesce, or read-around-write forwarding all count. The engine's
// next-event computation uses it to detect that a backlogged request could
// drain on the next cycle.
func (c *Controller) CanAccept(addr uint64, write bool) bool {
	if lineAddr, _, b := c.locate(addr); c.writeQ.has(b, lineAddr) {
		return true // write coalesce or read forwarding
	}
	if write {
		return c.CanEnqueueWrite()
	}
	return c.CanEnqueueRead()
}

// EnqueueRead queues a read for addr. If the line has a pending write, the
// read is served by store-forwarding: it completes immediately (forwarded
// true) and never occupies a queue slot.
func (c *Controller) EnqueueRead(addr uint64, now int64) (id uint64, forwarded bool, err error) {
	lineAddr, loc, b := c.locate(addr)
	if c.writeQ.has(b, lineAddr) {
		c.ReadsForwarded++
		c.nextID++
		return c.nextID, true, nil
	}
	if !c.CanEnqueueRead() {
		return 0, false, ErrQueueFull
	}
	c.nextID++
	c.readQ.push(b, Request{ID: c.nextID, Addr: lineAddr, Arrival: now, loc: loc})
	c.ReadsEnqueued++
	c.noteEnqueued(&c.readQ, b, now)
	return c.nextID, false, nil
}

// EnqueueWrite queues a write-back for addr. Writes to a line already in
// the write queue coalesce into the existing entry.
func (c *Controller) EnqueueWrite(addr uint64, now int64) error {
	lineAddr, loc, b := c.locate(addr)
	if c.writeQ.has(b, lineAddr) {
		return nil // coalesced
	}
	if !c.CanEnqueueWrite() {
		return ErrQueueFull
	}
	c.nextID++
	c.writeQ.push(b, Request{ID: c.nextID, Addr: lineAddr, Write: true, Arrival: now, loc: loc})
	c.WritesEnqueued++
	c.noteEnqueued(&c.writeQ, b, now)
	return nil
}

// noteEnqueued recomputes bank b's cached candidates, just joined by a new
// request, and folds them into the quiet bound. Adding a request can only
// add issue opportunities and touches no channel state, so min-ing its
// bank's candidates into a still-valid bound stays sound without
// invalidating the span. Crossing the write-drain high watermark must
// still invalidate: the pending drain toggle is next-cycle scheduler work
// no per-bank term covers.
func (c *Controller) noteEnqueued(q *queue, b int, now int64) {
	c.cacheCands(q, b)
	if !c.eventDriven || c.quietDirty || (!c.draining && c.writeQ.n >= c.drainHigh) {
		c.quietDirty = true
		return
	}
	// Anchor at now, not now+1: a request entering from the engine's
	// backlog is enqueued before this cycle's scheduler pass runs, so it
	// can legally issue in the very cycle it arrives. For enqueues that
	// land after the pass the bound is one cycle conservative, which only
	// costs a no-op wake.
	e := &q.cands[b]
	for k := range e.t {
		if e.t[k] != never {
			c.quietUntil = min(c.quietUntil, c.ch.EarliestIssue(e.cmd[k], q.banks[b][e.idx[k]].loc, now))
		}
	}
}

// AdoptChannelState grafts src's DRAM channel state onto c's channel (see
// dram.Channel.AdoptState). The graft replaces every bank's open row and
// local ready cycles, which would make cached candidates stale, so c must
// have no request queued; it panics otherwise.
func (c *Controller) AdoptChannelState(src *Controller) {
	if c.readQ.n+c.writeQ.n != 0 {
		panic(fmt.Sprintf("memctrl: channel state adopted under %d queued requests", c.readQ.n+c.writeQ.n))
	}
	c.ch.AdoptState(src.ch)
	c.touch()
}

// SkipRefreshTo rebases the channel's refresh deadlines past now (see
// dram.Channel.SkipRefreshTo) after a functional fast-forward. Queued
// writes may remain: the rebase moves only rank refresh deadlines, which
// scan reads live and no cached candidate holds. Reads must be idle, as
// the clock jump requires (ReadsIdle); it panics otherwise.
func (c *Controller) SkipRefreshTo(now int64) {
	if !c.ReadsIdle() {
		panic(fmt.Sprintf("memctrl: refresh rebased with reads in flight: %v", c))
	}
	c.ch.SkipRefreshTo(now)
}

// Idle reports whether all queues and in-flight activity are drained.
func (c *Controller) Idle() bool {
	return c.readQ.n == 0 && c.writeQ.n == 0 && c.pending.Len() == 0
}

// ReadsIdle reports whether all reads have completed and been delivered;
// queued writes are allowed to remain. A write-queue entry carries no
// timing-relevant state — scheduling considers only bank/row state, writes
// never enter the completion heap, and Arrival feeds read latency stats
// only — so a quiescent-except-writes controller tolerates an external
// clock jump without stranding in-flight work. The sampled simulation
// mode's fast-forward relies on this to preserve steady-state write-drain
// pressure across skipped spans instead of flushing the queue and
// re-synchronizing drain bursts with its measurement windows.
func (c *Controller) ReadsIdle() bool {
	return c.readQ.n == 0 && c.pending.Len() == 0
}

// Tick advances the controller by one memory cycle: it returns reads whose
// data completed at or before now, then issues at most one DRAM command.
// The returned slice is only valid until the next Tick call.
// In event-driven mode the scheduler scan is skipped during proven-quiet
// spans: after a cycle in which nothing could issue, Tick keeps the
// earliest cycle at which anything could (quietUntil) — the minimum the
// no-op scan itself computed — and returns immediately until the clock or
// an invalidating mutation (enqueue, issued command) catches up. The scan
// itself — not the ticking — dominates simulation cost, so this is where
// event-driven advance actually wins.
func (c *Controller) Tick(now int64) []Completion {
	done := c.doneBuf[:0]
	for c.pending.Len() > 0 && c.pending[0].Done <= now {
		done = append(done, heap.Pop(&c.pending).(Completion))
		// Completion pops never change issue legality, so quietUntil
		// survives them.
	}
	c.doneBuf = done
	if c.eventDriven && !c.quietDirty && c.quietUntil > now {
		return done
	}
	issued, next := c.issueOne(now)
	switch {
	case !c.eventDriven:
	case !issued:
		c.quietUntil = c.quietBound(now, next)
		c.quietDirty = false
	case c.lastIssueTick != now-1 && c.readQ.n+c.writeQ.n <= sparseQueued:
		// Isolated command in sparse traffic: prove the gap right away,
		// saving the next-cycle wake and its no-op scan. With more
		// requests queued this probe scans every busy bank and mostly
		// finds work the next cycle anyway, so it is skipped.
		_, nr := c.scan(&c.readQ, now+1)
		_, nw := c.scan(&c.writeQ, now+1)
		c.quietUntil = c.quietBound(now, min(nr, nw))
		c.quietDirty = false
	default:
		// Mid-burst: commands issue nearly every cycle, so assume more
		// work next cycle rather than paying a bound computation per
		// command. The first no-op scan after the burst buys the bound.
		c.quietDirty = true
	}
	if issued {
		c.lastIssueTick = now
	}
	return done
}

// SetEventDriven enables (or disables) quiet-span scan skipping. Off by
// default: the reference tick loop and all pre-existing callers see the
// exact per-cycle behaviour of the original controller.
func (c *Controller) SetEventDriven(v bool) { c.eventDriven = v }

// NextEvent returns the earliest memory cycle strictly after now at which
// Tick could change state: a pending read completing, or the scheduler
// having work (quietUntil). The bound is conservative — waking early just
// costs a no-op tick, while every cycle below the returned value is
// provably inert, which is what lets the simulator's event-driven loop
// skip it. O(1): when the issue-side state is dirty the answer is simply
// "next cycle", and Tick will either do the work or pay for the proof.
func (c *Controller) NextEvent(now int64) int64 {
	next := c.quietUntil
	if c.quietDirty {
		next = now + 1
	}
	if c.pending.Len() > 0 {
		next = min(next, c.pending[0].Done)
	}
	return max(next, now+1)
}

// quietBound returns the earliest cycle strictly after now at which
// issueOne could act, given next, the earliest cycle any queue candidate
// could issue: a pending write-drain toggle, the next refresh deadline (or
// the next step of an in-progress refresh sequence), or next itself.
func (c *Controller) quietBound(now, next int64) int64 {
	// A watermark crossing whose toggle has not run yet is genuine
	// next-cycle work. issueOne evaluates the hysteresis before it
	// schedules, so the command it just issued can itself cross the low
	// watermark and leave a toggle pending; deferring that toggle to the
	// next wake would let an interleaved enqueue change the decision and
	// diverge from the cycle-accurate reference.
	if (!c.draining && c.writeQ.n >= c.drainHigh) || (c.draining && c.writeQ.n <= c.drainLow) {
		return now + 1
	}
	for r := 0; r < c.cfg.Ranks; r++ {
		t := c.ch.NextRefresh(r)
		if c.ch.RefreshDue(r, now+1) {
			// Without this term an in-progress refresh sequence (tens of
			// cycles waiting on tRAS/tRP) would collapse the bound to
			// now+1 and force a scan every cycle of the wait.
			_, _, t = c.refreshStep(r, now+1)
		}
		next = min(next, t)
	}
	return max(next, now+1)
}

// refreshStep returns the next command of rank r's refresh sequence — PRE
// to the first open bank whose precharge is ready soonest, or REF once all
// banks are precharged — its target, and the earliest cycle >= at it may
// issue.
func (c *Controller) refreshStep(r int, at int64) (dram.Command, dram.Loc, int64) {
	cmd, loc, t := dram.CmdREF, dram.Loc{Rank: r}, never
	for bg := 0; bg < c.cfg.BankGroups; bg++ {
		for b := 0; b < c.cfg.BanksPerGroup(); b++ {
			l := dram.Loc{Rank: r, BankGroup: bg, Bank: b}
			if _, open := c.ch.OpenRow(l); open {
				if e := c.ch.EarliestIssue(dram.CmdPRE, l, at); e < t {
					cmd, loc, t = dram.CmdPRE, l, e
				}
			}
		}
	}
	if cmd == dram.CmdREF { // all precharged: no caller-must-precharge sentinel
		t = c.ch.EarliestIssue(dram.CmdREF, loc, at)
	}
	return cmd, loc, t
}

// issueOne implements FR-FCFS with refresh priority and write draining.
// It reports whether a DRAM command was issued this cycle and, if none
// was, the earliest cycle at which any queue candidate could issue.
func (c *Controller) issueOne(now int64) (bool, int64) {
	// Refresh has highest priority: close banks and refresh due ranks.
	// A due rank stays blocked to the queues until its REF issues.
	for r := 0; r < c.cfg.Ranks; r++ {
		if !c.ch.RefreshDue(r, now) {
			continue
		}
		if cmd, loc, t := c.refreshStep(r, now); t == now {
			c.ch.Issue(cmd, loc, now)
			c.touch()
			if cmd == dram.CmdPRE { // REF moves no bank-local state
				c.cacheBank(c.flatBank(loc))
			}
			return true, now
		}
	}

	// Write-drain mode hysteresis.
	if !c.draining && c.writeQ.n >= c.drainHigh {
		c.draining = true
		c.DrainEpisodes++
		c.touch()
	}
	if c.draining && c.writeQ.n <= c.drainLow {
		c.draining = false
		c.touch()
	}

	primary, secondary := &c.readQ, &c.writeQ
	if c.draining || c.readQ.n == 0 {
		primary, secondary = secondary, primary
	}
	next := never
	for _, q := range [2]*queue{primary, secondary} {
		p, t := c.scan(q, now)
		if p.cmd != 0 {
			c.issue(q, p, now)
			return true, now
		}
		next = min(next, t)
	}
	return false, next
}

// cand is one FR-FCFS candidate: a queued request (bank list b, index
// idx) and the command it needs next. A zero cmd means no candidate.
type cand struct {
	cmd    dram.Command
	b, idx int
}

// cacheCands recomputes bank b's cached candidates in q from its list and
// the bank's open row and local ready cycles.
func (c *Controller) cacheCands(q *queue, b int) {
	reqs := q.banks[b]
	if len(reqs) == 0 {
		return
	}
	e := &q.cands[b]
	e.t = [2]int64{never, never}
	set := func(k int, cmd dram.Command, hz uint8, i int) {
		e.t[k] = c.ch.LocalReady(cmd, reqs[i].loc)
		e.id[k], e.cmd[k], e.idx[k], e.hz[k] = reqs[i].ID, cmd, int32(i), hz
	}
	row, open := c.ch.OpenRow(reqs[0].loc)
	if !open {
		set(1, dram.CmdACT, dram.HorizonACT, 0)
		return
	}
	for i := range reqs {
		if reqs[i].loc.Row == row {
			set(0, q.col, dram.HorizonCol, i)
			if i == 0 {
				return
			}
			break
		}
	}
	set(1, dram.CmdPRE, dram.HorizonPRE, 0)
}

// cacheBank recomputes flat bank b's candidates in both queues after a
// command to that bank moved its open row or local ready cycles.
func (c *Controller) cacheBank(b int) {
	c.cacheCands(&c.readQ, b)
	c.cacheCands(&c.writeQ, b)
}

// scan applies FR-FCFS to one queue at cycle at, skipping ranks with
// refresh due: it returns the oldest row hit ready at at, else the oldest
// ready PRE/ACT (zero cmd if none), and the earliest cycle at which any
// candidate could issue. Each candidate's earliest issue cycle is the max
// of its cached local ready cycle and its bank group's shared horizon.
func (c *Controller) scan(q *queue, at int64) (pick cand, next int64) {
	hor := c.hor
	c.ch.Horizons(q.col, at, hor)
	for r := 0; r < c.cfg.Ranks; r++ {
		if c.ch.RefreshDue(r, at) {
			for g := r * c.cfg.BankGroups; g < (r+1)*c.cfg.BankGroups; g++ {
				hor[g] = dram.Horizon{never, never, never}
			}
		}
	}
	var best [2]cand // row-hit winner, PRE/ACT winner
	var bestID [2]uint64
	next = never
	for w, word := range q.busy {
		for ; word != 0; word &= word - 1 {
			b := w<<6 | bits.TrailingZeros64(word)
			e := &q.cands[b]
			h := &hor[e.group]
			for k := range e.t {
				t := max(e.t[k], h[e.hz[k]])
				next = min(next, t)
				if t == at && (best[k].cmd == 0 || e.id[k] < bestID[k]) {
					best[k], bestID[k] = cand{e.cmd[k], b, int(e.idx[k])}, e.id[k]
				}
			}
		}
	}
	if best[0].cmd != 0 {
		return best[0], next
	}
	return best[1], next
}

// issue issues candidate p from q at cycle now.
func (c *Controller) issue(q *queue, p cand, now int64) {
	c.touch()
	req := q.banks[p.b][p.idx]
	done := c.ch.Issue(p.cmd, req.loc, now)
	switch p.cmd {
	case dram.CmdPRE:
		c.ch.RecordRowOutcome(false, true)
	case dram.CmdACT:
		c.ch.RecordRowOutcome(false, false)
	default:
		c.ch.RecordRowOutcome(true, false)
		q.remove(p.b, p.idx)
		if req.Write {
			c.WritesCompleted++
		} else {
			c.ReadsCompleted++
			c.ReadLatencySum += uint64(done - req.Arrival)
			heap.Push(&c.pending, Completion{ID: req.ID, Addr: req.Addr, Done: done})
		}
	}
	c.cacheBank(p.b)
}

// AvgReadLatency returns the mean enqueue-to-data latency in memory cycles.
func (c *Controller) AvgReadLatency() float64 {
	if c.ReadsCompleted == 0 {
		return 0
	}
	return float64(c.ReadLatencySum) / float64(c.ReadsCompleted)
}

// String summarizes controller state for debugging.
func (c *Controller) String() string {
	return fmt.Sprintf("memctrl{rq=%d wq=%d inflight=%d drain=%v}",
		c.readQ.n, c.writeQ.n, c.pending.Len(), c.draining)
}

// completionHeap is a min-heap on Done cycle.
type completionHeap []Completion

func (h completionHeap) Len() int            { return len(h) }
func (h completionHeap) Less(i, j int) bool  { return h[i].Done < h[j].Done }
func (h completionHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *completionHeap) Push(x interface{}) { *h = append(*h, x.(Completion)) }
func (h *completionHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Draining reports whether the controller is currently in write-drain mode.
func (c *Controller) Draining() bool { return c.draining }

// DebugState renders the controller's full scheduling-relevant state, with
// each queue's requests in arrival order.
// Opt-in debugging aid: when the simulator's per-cycle identity test finds
// a divergence, add this to its state signature to see queue contents and
// bank timing at the first bad cycle.
func (c *Controller) DebugState() string {
	var s strings.Builder
	fmt.Fprintf(&s, "drain=%v q=[", c.draining)
	for _, q := range []*queue{&c.readQ, &c.writeQ} {
		var reqs []Request
		for _, l := range q.banks {
			reqs = append(reqs, l...)
		}
		sort.Slice(reqs, func(i, j int) bool { return reqs[i].ID < reqs[j].ID })
		for _, r := range reqs {
			fmt.Fprintf(&s, "%s%d@%v ", q.col.String()[:1], r.ID, r.loc)
		}
	}
	return s.String() + "] ch=" + c.ch.DebugState()
}
