// Package dram implements a cycle-level DDR4 channel model: per-bank state
// machines, a full JEDEC timing-constraint engine (tRCD/tRP/tRAS/tCCD_S/L/
// tWTR_S/L/tWR/tRTP/tRRD_S/L/tFAW/tREFI/tRFC), a shared data bus with
// variable burst length (BL8 reads; BL10 writes when SecDDR's eWCRC is
// enabled), bank groups, multiple ranks with rank-to-rank turnaround, and
// all-bank refresh.
//
// The model is command-accurate in the style of Ramulator: a memory
// controller decides which command to issue each memory-clock cycle; the
// channel tracks legality and earliest-issue times and reports data
// completion cycles.
//
// Timing state lives at the level each constraint belongs to, as in
// Ramulator and DRAMSim3, so Issue is O(1) for ACT, PRE, RD and WR:
//
//   - bank: the open row, and what a command to that bank sets for its next
//     ACT (tRP), PRE (tRAS, tRTP, tWR) and column command (tRCD);
//   - (rank, bank group): tCCD_L, tWTR_L and tRRD_L;
//   - rank: tRRD_S, tWTR_S, the tFAW window and refresh;
//   - channel: tCCD_S, the read-to-write turnaround, the data bus and the
//     command bus.
//
// EarliestIssue is the max of the bank-local value (LocalReady) and the
// shared horizons above it; Horizons fills the shared part for every bank
// group in one call, so a scheduler can cache the bank-local values, which
// change only when their bank is commanded. The split equals per-bank
// bookkeeping under two orderings, which config.DRAM.Validate enforces. A
// bank in the commanded group gets both the _L and the _S value, which is
// the _L gap only when each _L timing is at least its _S counterpart (tCCD,
// tWTR, tRRD). An ACT's tRRD also binds its own bank, which is harmless
// only when that bank cannot activate again sooner anyway: tRAS + tRP >=
// tRRD_L.
package dram

import (
	"fmt"
	"strings"

	"secddr/internal/config"
)

// Command is a DDR command type.
type Command int

// DDR commands modelled by the channel.
const (
	CmdACT Command = iota + 1 // activate (open) a row
	CmdPRE                    // precharge (close) a bank
	CmdRD                     // column read
	CmdWR                     // column write
	CmdREF                    // all-bank refresh (per rank)
)

// String returns the JEDEC-style mnemonic.
func (c Command) String() string {
	switch c {
	case CmdACT:
		return "ACT"
	case CmdPRE:
		return "PRE"
	case CmdRD:
		return "RD"
	case CmdWR:
		return "WR"
	case CmdREF:
		return "REF"
	default:
		return fmt.Sprintf("Command(%d)", int(c))
	}
}

// Loc addresses a DRAM location at command granularity.
type Loc struct {
	Rank      int
	BankGroup int
	Bank      int // bank index within the bank group
	Row       uint32
	Col       uint32 // column in units of cache lines
}

// bankState is what commands to one bank set: its open row and the
// bank-local part of its next ACT, PRE and column command.
type bankState struct {
	openRow int64 // -1 when closed
	nextACT int64 // tRP after a PRE
	nextPRE int64 // tRAS after an ACT, tRTP after a RD, tWR after WR data
	nextCol int64 // tRCD after an ACT
}

// groupState holds what a command sets for every bank of its (rank, bank
// group).
type groupState struct {
	nextACT int64 // tRRD_L after an ACT
	nextCol int64 // tCCD_L after a column command
	nextRD  int64 // tWTR_L after write data
}

// rankState tracks rank-wide constraints (tRRD_S, tWTR_S, tFAW, refresh).
type rankState struct {
	nextACT   int64    // tRRD_S after an ACT
	nextRD    int64    // tWTR_S after write data
	actWindow [4]int64 // cycle times of the last four ACTs (tFAW)
	actIdx    int
	nextREF   int64 // next refresh deadline
	refBusy   int64 // rank unusable until this cycle due to refresh
}

// Channel is one DDR channel: ranks sharing a command bus and a data bus.
type Channel struct {
	cfg    config.DRAM
	t      config.DRAMTiming
	banks  []bankState  // flat: rank*Banks + bankGroup*banksPerGroup + bank
	groups []groupState // flat: rank*BankGroups + bankGroup
	rank   []rankState

	banksPerGroup int
	readBL        int64 // data-bus beats/2 (memory-clock cycles) per read burst
	writeBL       int64

	nextCol       int64 // tCCD_S after a column command
	nextWR        int64 // read-to-write turnaround after a RD
	dataBusFreeAt int64
	lastBurstRank int
	lastCmdCycle  int64 // command bus: one command per cycle

	// Stats
	NumACT, NumPRE, NumRD, NumWR, NumREF uint64
	RowHits, RowMisses, RowConflicts     uint64
	DataBusBusyCycles                    uint64
	// RefreshShadowCycles accumulates tRFC memory cycles per issued REF:
	// the windows in which a rank is unusable behind refresh. Windows of
	// different ranks may overlap in time, so this is rank-shadow work,
	// not an exclusive-busy wall time.
	RefreshShadowCycles uint64
	// bankCols counts column commands (RD+WR) per flat bank — the
	// profiler's bank-utilization histogram.
	bankCols []uint64
}

// NewChannel constructs a channel from the DRAM configuration.
func NewChannel(cfg config.DRAM) (*Channel, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ch := &Channel{
		cfg:           cfg,
		t:             cfg.Timing,
		banksPerGroup: cfg.BanksPerGroup(),
		readBL:        int64((cfg.ReadBurstBeats + 1) / 2),
		writeBL:       int64((cfg.WriteBurstBeats + 1) / 2),
		lastBurstRank: -1,
		lastCmdCycle:  -1,
	}
	ch.bankCols = make([]uint64, cfg.Ranks*cfg.Banks)
	ch.banks = make([]bankState, cfg.Ranks*cfg.Banks)
	for b := range ch.banks {
		ch.banks[b].openRow = -1
	}
	ch.groups = make([]groupState, cfg.Ranks*cfg.BankGroups)
	ch.rank = make([]rankState, cfg.Ranks)
	for r := range ch.rank {
		for i := range ch.rank[r].actWindow {
			ch.rank[r].actWindow[i] = -1 << 40 // no ACT yet: tFAW inactive
		}
		if cfg.RefreshEnabled {
			// Stagger refresh across ranks to avoid lockstep stalls.
			ch.rank[r].nextREF = int64(cfg.Timing.TREFI) * int64(r+2) / int64(cfg.Ranks+1)
		} else {
			ch.rank[r].nextREF = 1 << 62
		}
	}
	return ch, nil
}

// Config returns the channel's configuration.
func (c *Channel) Config() config.DRAM { return c.cfg }

// flatBank returns loc's index into banks: rank*Banks +
// bankGroup*banksPerGroup + bank.
func (c *Channel) flatBank(loc Loc) int {
	return loc.Rank*c.cfg.Banks + loc.BankGroup*c.banksPerGroup + loc.Bank
}

func (c *Channel) bank(loc Loc) *bankState { return &c.banks[c.flatBank(loc)] }

// group returns the state of loc's (rank, bank group).
func (c *Channel) group(loc Loc) *groupState {
	return &c.groups[loc.Rank*c.cfg.BankGroups+loc.BankGroup]
}

// OpenRow returns the open row of the addressed bank and whether any row is
// open.
func (c *Channel) OpenRow(loc Loc) (uint32, bool) {
	b := c.bank(loc)
	if b.openRow < 0 {
		return 0, false
	}
	return uint32(b.openRow), true
}

// RefreshDue reports whether the rank has crossed its refresh deadline and
// must be refreshed before further commands.
func (c *Channel) RefreshDue(rank int, now int64) bool {
	return c.cfg.RefreshEnabled && now >= c.rank[rank].nextREF
}

// NextRefresh returns the absolute memory cycle of the rank's next refresh
// deadline — the first cycle at which RefreshDue becomes true. It returns a
// far-future sentinel when refresh is disabled. The controller's next-event
// computation uses it to bound how far the clock may skip ahead.
func (c *Channel) NextRefresh(rank int) int64 {
	if !c.cfg.RefreshEnabled {
		return 1 << 62
	}
	return c.rank[rank].nextREF
}

// SkipRefreshTo advances every rank's refresh deadline past now in whole
// tREFI steps, preserving each rank's staggered phase. The sampled
// simulation mode calls it after a functional fast-forward jumps the
// clock: the refreshes inside the skipped span are deemed to have happened
// (the span carries no modeled timing for them to perturb), and without
// the rebase the controller would issue a catch-up burst of back-to-back
// REF commands that stalls the next measurement window with work the
// fast-forwarded span already accounted for. Deadlines at or beyond now —
// and disabled refresh — are untouched, so the call is idempotent.
func (c *Channel) SkipRefreshTo(now int64) {
	if !c.cfg.RefreshEnabled {
		return
	}
	trefi := int64(c.t.TREFI)
	for r := range c.rank {
		rk := &c.rank[r]
		if rk.nextREF >= now {
			continue
		}
		missed := (now-rk.nextREF)/trefi + 1
		rk.nextREF += missed * trefi
	}
}

// EarliestIssue returns the earliest cycle >= now at which the command could
// legally issue. It accounts for bank timing, bank-group and rank
// constraints (tCCD_L, tWTR, tRRD, tFAW, refresh), the shared data bus for
// column commands, and the one-command-per-cycle command bus. For ACT, PRE,
// RD and WR it is the max of LocalReady and the bank group's Horizons
// entry.
func (c *Channel) EarliestIssue(cmd Command, loc Loc, now int64) int64 {
	r, g := loc.Rank, loc.Rank*c.cfg.BankGroups+loc.BankGroup
	earliest := c.base(r, now)
	switch cmd {
	case CmdACT:
		return max(earliest, c.bank(loc).nextACT, c.rankACT(r), c.groups[g].nextACT)
	case CmdPRE:
		return max(earliest, c.bank(loc).nextPRE)
	case CmdRD, CmdWR:
		return max(earliest, c.bank(loc).nextCol, c.rankCol(cmd, r), c.groupCol(cmd, g))
	}
	// REF: all banks must be precharged and past their PRE-to-ACT windows.
	for _, b := range c.banks[r*c.cfg.Banks : (r+1)*c.cfg.Banks] {
		if b.openRow >= 0 {
			return -1 // caller must precharge first
		}
		earliest = max(earliest, b.nextACT)
	}
	return earliest
}

// LocalReady returns the bank-local part of EarliestIssue for ACT, PRE, RD
// or WR to loc: what commands to that bank alone impose. It changes only
// when that bank is commanded.
func (c *Channel) LocalReady(cmd Command, loc Loc) int64 {
	b := c.bank(loc)
	switch cmd {
	case CmdACT:
		return b.nextACT
	case CmdPRE:
		return b.nextPRE
	}
	return b.nextCol
}

// Horizon is the shared part of EarliestIssue for the banks of one bank
// group at one cycle, indexed by HorizonCol (the column command it was
// filled for), HorizonACT and HorizonPRE.
type Horizon [3]int64

// Horizon indices.
const (
	HorizonCol = iota
	HorizonACT
	HorizonPRE
)

// Horizons fills dst, indexed rank*BankGroups + bankGroup, with every bank
// group's shared horizons at cycle at for ACT, PRE and column command col
// (RD or WR). EarliestIssue of such a command to a bank is the max of its
// LocalReady and its group's entry.
func (c *Channel) Horizons(col Command, at int64, dst []Horizon) {
	groups := c.cfg.BankGroups
	for r := range c.rank {
		base := c.base(r, at)
		act := max(base, c.rankACT(r))
		colR := max(base, c.rankCol(col, r))
		for g := r * groups; g < (r+1)*groups; g++ {
			dst[g] = Horizon{
				HorizonCol: max(colR, c.groupCol(col, g)),
				HorizonACT: max(act, c.groups[g].nextACT),
				HorizonPRE: base,
			}
		}
	}
}

// base is what every command to rank r waits for at cycle at: the command
// bus and refresh.
func (c *Channel) base(r int, at int64) int64 {
	return max(at, c.lastCmdCycle+1, c.rank[r].refBusy)
}

// rankACT is rank r's tRRD_S and tFAW horizon for ACT.
func (c *Channel) rankACT(r int) int64 {
	rk := &c.rank[r]
	return max(rk.nextACT, rk.actWindow[rk.actIdx]+int64(c.t.TFAW))
}

// rankCol is the channel and rank r horizon for column command col: tCCD_S,
// tWTR_S (RD) or the read-to-write turnaround (WR), and the data bus, where
// the burst must fit after the previous one plus the rank-to-rank gap.
func (c *Channel) rankCol(col Command, r int) int64 {
	free := c.dataBusFreeAt
	if c.lastBurstRank >= 0 && c.lastBurstRank != r {
		free += int64(c.t.TRTRS)
	}
	if col == CmdRD {
		return max(c.nextCol, c.rank[r].nextRD, free-int64(c.t.TCL))
	}
	return max(c.nextCol, c.nextWR, free-int64(c.t.TCWL))
}

// groupCol is flat bank group g's tCCD_L and, for RD, tWTR_L horizon.
func (c *Channel) groupCol(col Command, g int) int64 {
	gs := &c.groups[g]
	if col == CmdRD {
		return max(gs.nextCol, gs.nextRD)
	}
	return gs.nextCol
}

// CanIssue reports whether cmd may issue exactly at cycle now.
func (c *Channel) CanIssue(cmd Command, loc Loc, now int64) bool {
	e := c.EarliestIssue(cmd, loc, now)
	return e >= 0 && e == now
}

// Issue executes the command at cycle now. For RD and WR it returns the
// cycle at which the data burst completes (data available for reads; write
// fully transferred for writes). Issue panics if the command is illegal at
// now: the controller must consult EarliestIssue/CanIssue first — an illegal
// issue is a scheduler bug, not a runtime condition.
func (c *Channel) Issue(cmd Command, loc Loc, now int64) int64 {
	if e := c.EarliestIssue(cmd, loc, now); e != now {
		panic(fmt.Sprintf("dram: illegal %v to r%d/bg%d/b%d at cycle %d (earliest %d)",
			cmd, loc.Rank, loc.BankGroup, loc.Bank, now, e))
	}
	rk := &c.rank[loc.Rank]
	b := c.bank(loc)
	c.lastCmdCycle = now

	switch cmd {
	case CmdACT:
		c.NumACT++
		b.openRow = int64(loc.Row)
		b.nextCol = max(b.nextCol, now+int64(c.t.TRCD))
		b.nextPRE = max(b.nextPRE, now+int64(c.t.TRAS))
		// tRRD: ACT-to-ACT spacing within the rank.
		rk.nextACT = max(rk.nextACT, now+int64(c.t.TRRDS))
		g := c.group(loc)
		g.nextACT = max(g.nextACT, now+int64(c.t.TRRDL))
		rk.actWindow[rk.actIdx] = now
		rk.actIdx = (rk.actIdx + 1) % len(rk.actWindow)
		return 0

	case CmdPRE:
		c.NumPRE++
		b.openRow = -1
		b.nextACT = max(b.nextACT, now+int64(c.t.TRP))
		return 0

	case CmdRD:
		c.NumRD++
		c.bankCols[c.flatBank(loc)]++
		dataStart := now + int64(c.t.TCL)
		dataEnd := dataStart + c.readBL
		c.occupyBus(dataStart, dataEnd, loc.Rank)
		b.nextPRE = max(b.nextPRE, now+int64(c.t.TRTP))
		c.applyColToCol(loc, now)
		// Read-to-write turnaround (bus direction change): WR command must
		// wait so its data follows the read burst plus 2-cycle gap.
		c.nextWR = max(c.nextWR, dataEnd+2-int64(c.t.TCWL))
		return dataEnd

	case CmdWR:
		c.NumWR++
		c.bankCols[c.flatBank(loc)]++
		dataStart := now + int64(c.t.TCWL)
		dataEnd := dataStart + c.writeBL
		c.occupyBus(dataStart, dataEnd, loc.Rank)
		b.nextPRE = max(b.nextPRE, dataEnd+int64(c.t.TWR))
		c.applyColToCol(loc, now)
		// Write-to-read turnaround: same-rank reads wait tWTR after the
		// write data completes; the _L/_S distinction is by bank group.
		rk.nextRD = max(rk.nextRD, dataEnd+int64(c.t.TWTRS))
		g := c.group(loc)
		g.nextRD = max(g.nextRD, dataEnd+int64(c.t.TWTRL))
		return dataEnd

	case CmdREF:
		// Every command to the rank waits for refBusy (rankHorizon), so
		// no bank state moves.
		c.NumREF++
		c.RefreshShadowCycles += uint64(c.t.TRFC)
		rk.refBusy = now + int64(c.t.TRFC)
		rk.nextREF += int64(c.t.TREFI)
		return rk.refBusy

	default:
		panic(fmt.Sprintf("dram: unknown command %v", cmd))
	}
}

// applyColToCol enforces tCCD_S between successive column commands within
// the channel and tCCD_L within the issuing rank's bank group.
func (c *Channel) applyColToCol(loc Loc, now int64) {
	c.nextCol = max(c.nextCol, now+int64(c.t.TCCDS))
	g := c.group(loc)
	g.nextCol = max(g.nextCol, now+int64(c.t.TCCDL))
}

func (c *Channel) occupyBus(start, end int64, rank int) {
	c.DataBusBusyCycles += uint64(end - start)
	c.dataBusFreeAt = end
	c.lastBurstRank = rank
}

// Counters is a value snapshot of a channel's accumulated statistics,
// taken by the profiler at the measured-region boundary so per-channel
// deltas can be reported without reaching into live channel state.
type Counters struct {
	ACT, PRE, RD, WR, REF            uint64
	RowHits, RowMisses, RowConflicts uint64
	BusBusyCycles                    uint64
	RefreshShadowCycles              uint64
	BankCols                         []uint64 // per-bank column commands, rank-major
}

// Counters returns a snapshot of the channel's statistics; the BankCols
// slice is a copy.
func (c *Channel) Counters() Counters {
	return Counters{
		ACT: c.NumACT, PRE: c.NumPRE, RD: c.NumRD, WR: c.NumWR, REF: c.NumREF,
		RowHits: c.RowHits, RowMisses: c.RowMisses, RowConflicts: c.RowConflicts,
		BusBusyCycles:       c.DataBusBusyCycles,
		RefreshShadowCycles: c.RefreshShadowCycles,
		BankCols:            append([]uint64(nil), c.bankCols...),
	}
}

// Sub returns the element-wise difference k - base: the counter activity
// since base was snapshotted. The two snapshots must come from the same
// channel (equal BankCols geometry).
func (k Counters) Sub(base Counters) Counters {
	d := Counters{
		ACT: k.ACT - base.ACT, PRE: k.PRE - base.PRE, RD: k.RD - base.RD,
		WR: k.WR - base.WR, REF: k.REF - base.REF,
		RowHits: k.RowHits - base.RowHits, RowMisses: k.RowMisses - base.RowMisses,
		RowConflicts:        k.RowConflicts - base.RowConflicts,
		BusBusyCycles:       k.BusBusyCycles - base.BusBusyCycles,
		RefreshShadowCycles: k.RefreshShadowCycles - base.RefreshShadowCycles,
		BankCols:            append([]uint64(nil), k.BankCols...),
	}
	for i := range d.BankCols {
		d.BankCols[i] -= base.BankCols[i]
	}
	return d
}

// RecordRowOutcome lets the controller attribute a row-buffer outcome for
// statistics (hit: open row matched; miss: bank closed; conflict: wrong row
// open, precharge needed).
func (c *Channel) RecordRowOutcome(hit, conflict bool) {
	switch {
	case hit:
		c.RowHits++
	case conflict:
		c.RowConflicts++
	default:
		c.RowMisses++
	}
}

// DebugState renders the channel's timing state. Opt-in debugging aid for
// divergence localization (see memctrl.Controller.DebugState).
func (c *Channel) DebugState() string {
	var s strings.Builder
	fmt.Fprintf(&s, "bus=%d lastRank=%d lastCmd=%d col=%d wr=%d ",
		c.dataBusFreeAt, c.lastBurstRank, c.lastCmdCycle, c.nextCol, c.nextWR)
	for r := range c.rank {
		rk := &c.rank[r]
		fmt.Fprintf(&s, "r%d(ref=%d,busy=%d,act=%d,rd=%d)[", r, rk.nextREF, rk.refBusy, rk.nextACT, rk.nextRD)
		for g := r * c.cfg.BankGroups; g < (r+1)*c.cfg.BankGroups; g++ {
			gs := &c.groups[g]
			fmt.Fprintf(&s, "g%d:%d,%d,%d ", g, gs.nextACT, gs.nextCol, gs.nextRD)
		}
		for b := r * c.cfg.Banks; b < (r+1)*c.cfg.Banks; b++ {
			bk := &c.banks[b]
			fmt.Fprintf(&s, "%d:%d/%d,%d,%d ", b, bk.openRow, bk.nextACT, bk.nextPRE, bk.nextCol)
		}
		s.WriteString("] ")
	}
	return s.String()
}
