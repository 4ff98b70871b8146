package dram

import (
	"fmt"
	"math/rand"
	"testing"

	"secddr/internal/config"
)

// jedecChecker is an independent JEDEC command-trace checker. It keeps the
// log of issued commands and re-derives, from config.DRAMTiming and that
// log alone, the earliest cycle at which a command may legally issue:
// tRCD, tRP, tRAS, tCCD_S/L, tWTR_S/L, tRTP, tWR, tRRD_S/L, tFAW, tRFC, the
// one-command-per-cycle command bus, data-bus non-overlap with the
// rank-to-rank tRTRS gap, and the read-to-write bus turnaround. It never
// consults the channel's timing state, so a timing error in Channel shows
// up as a disagreement instead of being checked against itself.
type jedecChecker struct {
	t       config.DRAMTiming
	readBL  int64 // data-bus cycles per burst: two beats per clock
	writeBL int64
	span    int64 // no constraint reaches further than this past its command
	log     []logged
	open    map[[3]int]uint32 // (rank, bank group, bank) -> open row
}

type logged struct {
	at  int64
	cmd Command
	loc Loc
}

// rdToWrGap is the bus-direction turnaround the model inserts between the
// end of a read burst and the start of a write burst, in memory cycles.
const rdToWrGap = 2

func newJEDECChecker(cfg config.DRAM) *jedecChecker {
	t := cfg.Timing
	k := &jedecChecker{
		t:       t,
		readBL:  int64((cfg.ReadBurstBeats + 1) / 2),
		writeBL: int64((cfg.WriteBurstBeats + 1) / 2),
		open:    make(map[[3]int]uint32),
	}
	k.span = int64(t.TCL+t.TCWL+t.TCCDL+t.TWTRL+t.TRP+t.TRCD+t.TRAS+t.TRTP+t.TWR+
		t.TRRDL+t.TFAW+t.TRFC+t.TRTRS) + k.readBL + k.writeBL + rdToWrGap
	return k
}

func bankKey(l Loc) [3]int { return [3]int{l.Rank, l.BankGroup, l.Bank} }

// openRow reports the row the log leaves open in loc's bank.
func (k *jedecChecker) openRow(loc Loc) (uint32, bool) {
	row, ok := k.open[bankKey(loc)]
	return row, ok
}

// rankClosed reports whether every bank of rank r is precharged.
func (k *jedecChecker) rankClosed(r int) bool {
	for key := range k.open {
		if key[0] == r {
			return false
		}
	}
	return true
}

// earliest returns the earliest cycle >= now at which cmd to loc is legal,
// or -1 for a REF to a rank with an open bank. The caller only asks about
// commands the bank state admits: ACT to a closed bank, PRE/RD/WR to an
// open one.
func (k *jedecChecker) earliest(cmd Command, loc Loc, now int64) int64 {
	if cmd == CmdREF && !k.rankClosed(loc.Rank) {
		return -1
	}
	t := k.t
	e := now
	bump := func(v int64) {
		if v > e {
			e = v
		}
	}
	pick := func(same bool, l, s int) int64 {
		if same {
			return int64(l)
		}
		return int64(s)
	}
	var acts []int64 // same-rank ACT cycles, oldest first (tFAW)
	for _, l := range k.log {
		bump(l.at + 1) // one command per cycle
		sameRank := l.loc.Rank == loc.Rank
		sameGroup := sameRank && l.loc.BankGroup == loc.BankGroup
		sameBank := sameGroup && l.loc.Bank == loc.Bank
		if l.cmd == CmdREF {
			if sameRank {
				bump(l.at + int64(t.TRFC))
			}
			continue
		}
		if l.cmd == CmdRD || l.cmd == CmdWR {
			// Data-bus occupancy: a new burst starts after every earlier
			// one ends, tRTRS later when the rank switches.
			lat, bl := int64(t.TCL), k.readBL
			if l.cmd == CmdWR {
				lat, bl = int64(t.TCWL), k.writeBL
			}
			end := l.at + lat + bl
			if cmd == CmdRD || cmd == CmdWR {
				myLat := int64(t.TCL)
				if cmd == CmdWR {
					myLat = int64(t.TCWL)
				}
				gap := int64(0)
				if !sameRank {
					gap = int64(t.TRTRS)
				}
				bump(end + gap - myLat)
				bump(l.at + pick(sameGroup, t.TCCDL, t.TCCDS))
			}
			switch {
			case l.cmd == CmdRD && cmd == CmdWR:
				bump(end + rdToWrGap - int64(t.TCWL))
			case l.cmd == CmdRD && cmd == CmdPRE && sameBank:
				bump(l.at + int64(t.TRTP))
			case l.cmd == CmdWR && cmd == CmdRD && sameRank:
				bump(end + pick(sameGroup, t.TWTRL, t.TWTRS))
			case l.cmd == CmdWR && cmd == CmdPRE && sameBank:
				bump(end + int64(t.TWR))
			}
			continue
		}
		if !sameRank {
			continue
		}
		switch {
		case l.cmd == CmdACT && cmd == CmdACT:
			bump(l.at + pick(sameGroup, t.TRRDL, t.TRRDS))
			acts = append(acts, l.at)
		case l.cmd == CmdACT && cmd == CmdPRE && sameBank:
			bump(l.at + int64(t.TRAS))
		case l.cmd == CmdACT && (cmd == CmdRD || cmd == CmdWR) && sameBank:
			bump(l.at + int64(t.TRCD))
		case l.cmd == CmdPRE && (cmd == CmdREF || cmd == CmdACT && sameBank):
			bump(l.at + int64(t.TRP))
		}
	}
	if n := len(acts); n >= 4 {
		bump(acts[n-4] + int64(t.TFAW))
	}
	return e
}

// record appends an issued command to the log and applies its bank-state
// effect; entries too old to constrain anything at or after at are dropped.
func (k *jedecChecker) record(cmd Command, loc Loc, at int64) {
	switch cmd {
	case CmdACT:
		k.open[bankKey(loc)] = loc.Row
	case CmdPRE:
		delete(k.open, bankKey(loc))
	}
	k.log = append(k.log, logged{at, cmd, loc})
	drop := 0
	for drop < len(k.log) && k.log[drop].at+k.span < at {
		drop++
	}
	k.log = append(k.log[:0], k.log[drop:]...)
}

type checkerGeom struct {
	name string
	cfg  config.DRAM
}

// checkerGeoms are the channel geometries the checker runs on: Table I
// DDR4, its eWCRC variant (BL10 writes), DDR5, and 4-rank DDR5.
func checkerGeoms() []checkerGeom {
	ddr4 := config.Table1(config.ModeUnprotected).DRAM
	ewcrc := config.Table1(config.ModeSecDDRCTR).DRAM
	ddr5 := config.Table1DDR5(config.ModeUnprotected).DRAM
	ddr5x4 := ddr5
	ddr5x4.Ranks = 4
	ddr5x4.CapacityBytes *= 2
	return []checkerGeom{{"ddr4", ddr4}, {"ddr4-ewcrc", ewcrc}, {"ddr5", ddr5}, {"ddr5-4rank", ddr5x4}}
}

// stateLegal lists the commands loc's bank state admits, per the checker's
// log: ACT when closed, PRE/RD/WR (to the open row) when open, and REF.
func (k *jedecChecker) stateLegal(loc Loc) []Command {
	if _, open := k.openRow(loc); open {
		return []Command{CmdPRE, CmdRD, CmdWR, CmdREF}
	}
	return []Command{CmdACT, CmdREF}
}

// allLocs enumerates every bank of the geometry.
func allLocs(cfg config.DRAM) []Loc {
	var out []Loc
	for r := 0; r < cfg.Ranks; r++ {
		for bg := 0; bg < cfg.BankGroups; bg++ {
			for b := 0; b < cfg.BanksPerGroup(); b++ {
				out = append(out, Loc{Rank: r, BankGroup: bg, Bank: b})
			}
		}
	}
	return out
}

// compareAll asserts that EarliestIssue agrees with the checker at cycle
// at for every state-admitted (command, bank).
func compareAll(t testing.TB, ch *Channel, k *jedecChecker, cfg config.DRAM, at int64) {
	t.Helper()
	for _, loc := range allLocs(cfg) {
		row, open := k.openRow(loc)
		if gotRow, gotOpen := ch.OpenRow(loc); gotOpen != open || gotRow != row {
			t.Fatalf("cycle %d %v: channel open row %d,%v, log says %d,%v", at, loc, gotRow, gotOpen, row, open)
		}
		loc.Row = row
		for _, cmd := range k.stateLegal(loc) {
			if got, want := ch.EarliestIssue(cmd, loc, at), k.earliest(cmd, loc, at); got != want {
				t.Fatalf("cycle %d: EarliestIssue(%v, %+v) = %d, checker %d", at, cmd, loc, got, want)
			}
		}
	}
}

// driveStream issues steps seeded random commands, each legal for its bank
// state, through a fresh channel of geometry cfg. Every issued command is
// checked against the checker, EarliestIssue is compared for the chosen
// command at each step and for every (command, bank) every sampleEvery
// steps. Commands issue at their earliest cycle or, sometimes, later.
func driveStream(t testing.TB, cfg config.DRAM, seed int64, steps, sampleEvery int) *Channel {
	t.Helper()
	ch, err := NewChannel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	k := newJEDECChecker(cfg)
	rng := rand.New(rand.NewSource(seed))
	var forced []Loc // a refresh sequence: PREs to the open banks, then REF
	now := int64(0)
	for i := 0; i < steps; i++ {
		loc := Loc{
			Rank:      rng.Intn(cfg.Ranks),
			BankGroup: rng.Intn(cfg.BankGroups),
			Bank:      rng.Intn(cfg.BanksPerGroup()),
			Row:       uint32(rng.Intn(4)),
		}
		if len(forced) == 0 && rng.Intn(64) == 0 {
			for _, l := range allLocs(cfg) {
				if _, open := k.openRow(l); open && l.Rank == loc.Rank {
					forced = append(forced, l)
				}
			}
			forced = append(forced, Loc{Rank: loc.Rank})
		}
		var cmd Command
		row, open := k.openRow(loc)
		switch {
		case len(forced) > 0:
			loc, forced = forced[0], forced[1:]
			cmd = CmdREF
			if row, open := k.openRow(loc); open {
				cmd, loc.Row = CmdPRE, row
			}
		case !open:
			cmd = CmdACT
		case row != loc.Row || rng.Intn(8) == 0:
			cmd, loc.Row = CmdPRE, row
		case rng.Intn(3) == 0:
			cmd = CmdWR
		default:
			cmd = CmdRD
		}
		got, want := ch.EarliestIssue(cmd, loc, now), k.earliest(cmd, loc, now)
		if got != want || got < 0 {
			t.Fatalf("step %d cycle %d: EarliestIssue(%v, %+v) = %d, checker %d", i, now, cmd, loc, got, want)
		}
		at := got
		if rng.Intn(4) == 0 {
			at += rng.Int63n(24)
		}
		if e := k.earliest(cmd, loc, at); e != at {
			t.Fatalf("step %d: %v to %+v at %d is illegal, checker's earliest %d", i, cmd, loc, at, e)
		}
		ch.Issue(cmd, loc, at)
		k.record(cmd, loc, at)
		now = at + rng.Int63n(3)
		if sampleEvery > 0 && i%sampleEvery == 0 {
			compareAll(t, ch, k, cfg, now)
			compareAll(t, ch, k, cfg, now+rng.Int63n(64))
		}
	}
	if ch.NumACT == 0 || ch.NumPRE == 0 || ch.NumRD == 0 || ch.NumWR == 0 {
		t.Fatalf("stream too tame: ACT %d PRE %d RD %d WR %d", ch.NumACT, ch.NumPRE, ch.NumRD, ch.NumWR)
	}
	return ch
}

// TestCommandStreamMatchesJEDEC drives seeded random legal command streams
// through every checker geometry and requires the channel to agree with the
// independent JEDEC checker on every issued command and, at sampled
// cycles, on EarliestIssue for every (command, bank).
func TestCommandStreamMatchesJEDEC(t *testing.T) {
	for _, g := range checkerGeoms() {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", g.name, seed), func(t *testing.T) {
				t.Parallel()
				ch := driveStream(t, g.cfg, seed, 3000, 40)
				if ch.NumREF == 0 {
					t.Fatal("no refresh issued")
				}
			})
		}
	}
}

// FuzzCommandStream runs the checker on fuzzer-chosen seeds and geometries.
func FuzzCommandStream(f *testing.F) {
	for g := range checkerGeoms() {
		f.Add(int64(g+1), uint8(g))
	}
	geoms := checkerGeoms()
	f.Fuzz(func(t *testing.T, seed int64, geom uint8) {
		driveStream(t, geoms[int(geom)%len(geoms)].cfg, seed, 400, 25)
	})
}
