// Command secddr-sim runs a single performance simulation: one workload
// under one protection mode, printing the metrics the paper's figures are
// built from.
//
// Usage:
//
//	secddr-sim -workload mcf -mode secddr+xts -instr 1000000
//	secddr-sim -workload lbm -json        # machine-readable result
//	secddr-sim -fidelity sampled -ci-target 0.03   # interval sampling, ±CI output
//	secddr-sim -scenario thrash-one       # built-in multi-core scenario
//	secddr-sim -list                      # workloads, scenarios, and modes
//	secddr-sim -print-config              # dump the Table I configuration
//	secddr-sim -timeline run.json         # Perfetto trace of the run
//
// A -timeline trace opens in Perfetto (ui.perfetto.dev) or chrome://tracing:
// per-channel DRAM issue and refresh spans, MSHR occupancy, scenario phase
// transitions, and the warmup/measured run markers, all on the simulated
// cycle clock. The trace never changes the simulation: the instrumented
// result is byte-identical to a plain run's, sampled estimates included.
//
// For multi-point grids (many workloads x many modes) use secddr-sweep,
// which runs this same simulator on a parallel, cached campaign harness.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"secddr/internal/config"
	"secddr/internal/obs"
	"secddr/internal/scenario"
	"secddr/internal/sim"
	"secddr/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "secddr-sim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		workload    = flag.String("workload", "mcf", "benchmark name (see -list)")
		scn         = flag.String("scenario", "", "built-in scenario name (see -list); replaces -workload with a multi-core phase-structured workload")
		mode        = flag.String("mode", "secddr+xts", "protection mode (see -list)")
		instr       = flag.Uint64("instr", 500_000, "measured instructions per core")
		warmup      = flag.Uint64("warmup", 200_000, "warmup instructions per core")
		seed        = flag.Uint64("seed", 42, "workload seed")
		fidelity    = flag.String("fidelity", "exact", `execution fidelity: "exact" (cycle-accurate throughout) or "sampled" (interval sampling; metrics come back as mean ±95% CI)`)
		ciTarget    = flag.Float64("ci-target", 0, "sampled mode: stop early once IPC and bandwidth 95% CIs shrink below this fraction of their means (0 = run the full region)")
		realistic   = flag.Bool("invisimem-realistic", false, "derate InvisiMem to 2400MT/s")
		list        = flag.Bool("list", false, "list workloads and modes")
		printConfig = flag.Bool("print-config", false, "print the Table I configuration")
		jsonOut     = flag.Bool("json", false, "print the result as JSON instead of the text report")
		timeline    = flag.String("timeline", "", "write a Chrome/Perfetto trace-event JSON timeline of the run to this file")
		tlSample    = flag.Int64("timeline-sample", 256, "minimum cycles between counter samples in the -timeline trace")
		version     = flag.Bool("version", false, "print build version and exit")
	)
	flag.Parse()

	if *version {
		fmt.Println(obs.Version("secddr-sim"))
		return nil
	}

	if *list {
		fmt.Println("workloads:")
		for _, p := range trace.Profiles() {
			tag := ""
			if p.MemIntensive() {
				tag = " (memory-intensive)"
			}
			fmt.Printf("  %-12s MPKI=%-6.1f pattern=%-8v%s\n", p.Name, p.MPKI, p.Pattern, tag)
		}
		fmt.Println("attacker profiles (scenario building blocks):")
		for _, p := range scenario.AttackerProfiles() {
			fmt.Printf("  %-20s MPKI=%-6.1f pattern=%-8v\n", p.Name, p.MPKI, p.Pattern)
		}
		fmt.Println("scenarios:")
		for _, s := range scenario.Builtins() {
			fmt.Printf("  %-16s %s\n", s.Name, s.Description)
		}
		fmt.Println("modes:")
		for m := config.ModeIntegrityTree; m <= config.ModeUnprotected; m++ {
			fmt.Printf("  %v\n", m)
		}
		return nil
	}

	m, err := config.ParseMode(*mode)
	if err != nil {
		return err
	}
	cfg := config.Table1(m)
	if *realistic && m == config.ModeInvisiMem {
		cfg.Security.InvisiMemRealistic = true
		cfg.Normalize()
	}

	if *printConfig {
		fmt.Printf("%+v\n", cfg)
		return nil
	}

	fidMode, err := sim.ParseFidelityMode(*fidelity)
	if err != nil {
		return err
	}
	opt := sim.Options{
		Config:       cfg,
		InstrPerCore: *instr,
		WarmupInstr:  *warmup,
		Seed:         *seed,
		Fidelity:     sim.Fidelity{Mode: fidMode, TargetCI: *ciTarget},
	}
	if *scn != "" {
		s, ok := scenario.ByName(*scn)
		if !ok {
			return fmt.Errorf("unknown scenario %q (try -list)", *scn)
		}
		opt.Scenario = s
	} else {
		p, ok := trace.ByName(*workload)
		if !ok {
			return fmt.Errorf("unknown workload %q (try -list)", *workload)
		}
		opt.Workload = p
	}
	var res sim.Result
	if *timeline != "" {
		tl := obs.NewTimeline(cfg.Core.ClockMHz, *tlSample, 0)
		res, err = sim.RunInstrumented(opt, &sim.Instrument{Timeline: tl})
		if err != nil {
			return err
		}
		f, err := os.Create(*timeline)
		if err != nil {
			return err
		}
		if err := tl.WriteTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "secddr-sim: wrote %d trace events to %s (open in ui.perfetto.dev)\n",
			tl.Events(), *timeline)
	} else {
		res, err = sim.Run(opt)
		if err != nil {
			return err
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
	}

	fmt.Printf("workload          %s\n", res.Workload)
	if !opt.Scenario.IsZero() {
		fmt.Printf("scenario          %v\n", opt.Scenario)
	}
	fmt.Printf("mode              %v\n", res.Mode)
	if est, ok := res.Estimates["ipc"]; ok {
		fmt.Printf("fidelity          sampled (%d measurement windows)\n", est.Windows)
		fmt.Printf("total IPC         %.3f ±%.3f (95%% CI)\n", est.Mean, est.CI95)
	} else {
		fmt.Printf("total IPC         %.3f\n", res.IPC)
	}
	fmt.Printf("per-core IPC     ")
	for _, v := range res.PerCoreIPC {
		fmt.Printf(" %.3f", v)
	}
	fmt.Println()
	fmt.Printf("LLC MPKI          %.2f (miss rate %.1f%%)\n", res.LLCMPKI, res.LLCMissRate*100)
	if res.MetaAccesses > 0 {
		fmt.Printf("metadata cache    %.1f%% miss rate, %d accesses, %d DRAM fetches\n",
			res.MetaMissRate*100, res.MetaAccesses, res.MetaMemReads)
	}
	fmt.Printf("DRAM              %d reads, %d writes, row-hit %.1f%%\n",
		res.DRAMReads, res.DRAMWrites, res.RowHitRate*100)
	fmt.Printf("avg read latency  %.1f memory cycles\n", res.AvgReadLatency)
	if est, ok := res.Estimates["bandwidth_gbs"]; ok {
		fmt.Printf("bus bandwidth     %.1f ±%.1f GB/s (95%% CI)\n", est.Mean, est.CI95)
	} else {
		fmt.Printf("bus bandwidth     %.1f GB/s\n", res.BandwidthGBs)
	}
	fmt.Printf("prefetches        %d\n", res.PrefetchesSent)
	return nil
}
