package main

import (
	"fmt"
	"time"

	"secddr/internal/cache"
	"secddr/internal/config"
	"secddr/internal/cpu"
	"secddr/internal/dram"
	"secddr/internal/harness"
	"secddr/internal/memctrl"
	"secddr/internal/secmem"
	"secddr/internal/sim"
	"secddr/internal/trace"
)

// The replays time one layer at a time by calling its public functions in
// a loop on inputs drawn from the workload's own streams. Each loop runs a
// fixed amount of work, so its figure compares across commits.
const (
	replayOps    = 400_000 // generator ops, also the LLC access stream
	replayTicks  = 200_000 // memory cycles at a full read queue
	replayIssues = 200_000 // EarliestIssue calls
	replayInstr  = 400_000 // instructions through one core
	replayReads  = 20_000  // protected reads through the security engine
	coreMemLat   = 100     // CPU cycles the fixed-latency memory answers in
)

// sink keeps the compiler from discarding replay results.
var sink int64

// layerReplay holds the per-layer figures the replays measure.
type layerReplay struct {
	traceNextNs, cacheAccessNs, cacheHitRatio float64
	memctrlTickNs, dramEarliestNs             float64
	cpuNsPerInstr                             float64
	secmemNsPerRead, secmemMetaMissRatio      float64
}

// replayLayers runs every replay for the workload's replay profile.
func replayLayers(tr *Tracer, profile string, seed uint64) (layerReplay, error) {
	var out layerReplay
	p, ok := trace.ByName(profile)
	if !ok {
		return out, fmt.Errorf("unknown profile %q", profile)
	}
	endAll, parent := tr.Begin("replay", profile, 0)
	defer endAll()
	cfg := config.Table1(config.ModeIntegrityTree)

	// trace: the op stream itself.
	gen, err := trace.NewGenerator(p, 0, seed)
	if err != nil {
		return out, err
	}
	ops := make([]cpu.Op, replayOps)
	end, _ := tr.Begin("replay.trace.Next", profile, parent)
	t := time.Now()
	for i := range ops {
		ops[i], _ = gen.Next()
	}
	out.traceNextNs = perOp(time.Since(t), len(ops))
	end()

	// cache: the stream through the Table I LLC, filling on every miss;
	// the misses become the memory replays' request stream.
	llc, err := cache.New(cfg.LLC)
	if err != nil {
		return out, err
	}
	misses := make([]uint64, 0, len(ops)/4)
	line := ^uint64(cfg.LLC.LineBytes - 1)
	end, _ = tr.Begin("replay.cache.Access", profile, parent)
	t = time.Now()
	for _, op := range ops {
		if !llc.Access(op.Addr, op.Store) {
			llc.Fill(op.Addr, op.Store)
			misses = append(misses, op.Addr&line)
		}
	}
	out.cacheAccessNs = perOp(time.Since(t), len(ops))
	out.cacheHitRatio = float64(len(ops)-len(misses)) / float64(len(ops))
	end()
	if len(misses) == 0 {
		return out, fmt.Errorf("%s: no LLC misses in %d ops", profile, len(ops))
	}

	// memctrl: FR-FCFS at a full read queue, refilled from the miss
	// stream every cycle.
	ctl, err := memctrl.New(cfg.DRAM)
	if err != nil {
		return out, err
	}
	ctl.SetEventDriven(true)
	next := 0
	end, _ = tr.Begin("replay.memctrl.Tick", profile, parent)
	t = time.Now()
	for now := int64(1); now <= replayTicks; now++ {
		for ctl.CanEnqueueRead() {
			if _, _, err := ctl.EnqueueRead(misses[next%len(misses)], now); err != nil {
				return out, fmt.Errorf("memctrl replay: %w", err)
			}
			next++
		}
		sink += int64(len(ctl.Tick(now)))
	}
	out.memctrlTickNs = perOp(time.Since(t), replayTicks)
	end()

	// dram: timing checks against the channel state the controller left.
	ch, mapper := ctl.Channel(), ctl.Mapper()
	locs := make([]dram.Loc, min(len(misses), 4096))
	for i := range locs {
		_, locs[i] = mapper.Map(misses[i])
	}
	end, _ = tr.Begin("replay.dram.EarliestIssue", profile, parent)
	t = time.Now()
	for i := 0; i < replayIssues; i++ {
		sink += ch.EarliestIssue(dram.CmdRD, locs[i%len(locs)], replayTicks)
	}
	out.dramEarliestNs = perOp(time.Since(t), replayIssues)
	end()

	// cpu: one core on the op stream over a fixed-latency memory.
	gen, err = trace.NewGenerator(p, 0, seed)
	if err != nil {
		return out, err
	}
	core := cpu.NewCore(cfg.Core, fixedMemory{}, gen)
	end, _ = tr.Begin("replay.cpu.Tick", profile, parent)
	t = time.Now()
	for now := int64(1); core.Retired < replayInstr; now++ {
		core.Tick(now)
	}
	out.cpuNsPerInstr = perOp(time.Since(t), int(core.Retired))
	end()

	// secmem: protected reads of the miss stream on the integrity tree,
	// with at most one MSHR file's worth outstanding.
	eng, err := secmem.NewEngine(cfg)
	if err != nil {
		return out, err
	}
	eng.SetEventDriven(true)
	const outstandingMax = 16
	outstanding, started, done := 0, 0, 0
	end, _ = tr.Begin("replay.secmem.StartRead", profile, parent)
	t = time.Now()
	for now := int64(1); done < replayReads; now++ {
		for outstanding < outstandingMax && started < replayReads {
			eng.StartRead(misses[started%len(misses)], now)
			started++
			outstanding++
		}
		n := len(eng.Tick(now))
		outstanding -= n
		done += n
	}
	out.secmemNsPerRead = perOp(time.Since(t), done)
	end()
	if mc := eng.MetaCache(); mc != nil {
		out.secmemMetaMissRatio = mc.MissRate()
	}
	return out, nil
}

func perOp(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}

// fixedMemory answers every load after coreMemLat cycles and accepts every
// store, isolating the core model from the memory system.
type fixedMemory struct{}

func (fixedMemory) Load(_ uint64, now int64) cpu.LoadResult {
	return cpu.LoadResult{Accepted: true, ReadyAt: now + coreMemLat}
}

func (fixedMemory) Store(uint64, int64) bool { return true }

// simTimes holds the fork-path timings of one grid point.
type simTimes struct {
	warmup, forkPrime, forkCopy, minstrPerS float64
	cold                                    sim.Result
}

// timeSimPoint times sim.Warmup, the first Fork of the point (which primes
// the metadata cache), a second Fork (which reuses the memoised priming),
// and a cold sim.Run of the same point.
func timeSimPoint(tr *Tracer, j harness.Job) (simTimes, error) {
	var st simTimes
	endAll, parent := tr.Begin("replay.sim", j.Opt.Digest(), 0)
	defer endAll()
	step := func(name string, fn func() error) (float64, error) {
		end, _ := tr.Begin(name, j.Opt.Digest(), parent)
		defer end()
		t := time.Now()
		err := fn()
		return time.Since(t).Seconds(), err
	}
	var w *sim.Warmed
	var err error
	if st.warmup, err = step("sim.Warmup", func() (e error) { w, e = sim.Warmup(j.Opt); return }); err != nil {
		return st, err
	}
	if st.forkPrime, err = step("sim.Warmed.Fork.prime", func() error { _, e := w.Fork(j.Opt); return e }); err != nil {
		return st, err
	}
	if st.forkCopy, err = step("sim.Warmed.Fork.memo", func() error { _, e := w.Fork(j.Opt); return e }); err != nil {
		return st, err
	}
	run, err := step("sim.Run", func() (e error) { st.cold, e = sim.Run(j.Opt); return })
	if err != nil {
		return st, err
	}
	st.minstrPerS = float64(st.cold.Instructions) / run / 1e6
	return st, nil
}
