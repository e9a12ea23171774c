// Command udpsim runs a single simulation: one workload, one mechanism,
// one configuration. It prints the metrics the paper's figures are
// built from, and can stream the run's cycle-level observability: a
// Chrome trace-event JSON (Perfetto-loadable), a per-interval metrics
// time series (CSV/JSONL), and a live pprof/metrics endpoint.
//
// Examples:
//
//	udpsim -workload xgboost -mechanism udp
//	udpsim -workload verilator -mechanism baseline -ftq 84 -instrs 5000000
//	udpsim -workload clang -mechanism perfect-icache -simpoints 3
//	udpsim -workload mysql -trace-out t.json -metrics-out m.csv -interval 10000
//	udpsim -trace mysql.udpt2 -mechanism udp
//	udpsim -list
package main

import (
	"flag"
	"fmt"
	"os"
	"sync"
	"text/tabwriter"

	"udpsim/internal/obs"
	"udpsim/internal/sim"
	"udpsim/internal/trace"
	"udpsim/internal/workload"
)

func main() {
	var (
		name      = flag.String("workload", "mysql", "application to simulate (see -list)")
		traceIn   = flag.String("trace", "", "replay a recorded trace file (.udpt2) instead of -workload")
		mech      = flag.String("mechanism", "baseline", "prefetch mechanism: "+sim.MechanismNames()+" (see -list-mechanisms)")
		ftq       = flag.Int("ftq", 32, "FTQ depth (baseline/UDP) or initial depth (UFTQ)")
		btb       = flag.Int("btb", 8192, "BTB entries")
		icache    = flag.Int("icache", 32*1024, "L1I size in bytes")
		instrs    = flag.Uint64("instrs", 2_000_000, "instructions to simulate per simpoint")
		warmup    = flag.Uint64("warmup", 200_000, "warmup instructions (excluded from stats)")
		simpoints = flag.Int("simpoints", 1, "number of simulated regions")
		parallel  = flag.Int("j", 1, "max concurrently simulated regions (0 = GOMAXPROCS)")
		list      = flag.Bool("list", false, "list workloads and exit")
		listMechs = flag.Bool("list-mechanisms", false, "list registered prefetch mechanisms and exit")
		udpThresh = flag.Int("udp-threshold", 0, "override UDP confidence threshold")
		udpHidden = flag.Bool("udp-hidden", true, "enable UDP hidden-taken-branch trigger")
		btbFill   = flag.Bool("btb-fill", false, "enable predecode BTB fill from prefetched lines (Boomerang-style)")
		verbose   = flag.Bool("v", false, "dump detailed statistics (and debug-level logs)")

		// Observability.
		traceOut   = flag.String("trace-out", "", "write a Chrome trace-event JSON of the measured region (load in Perfetto)")
		traceCap   = flag.Int("trace-cap", 0, "event ring capacity per region (0 = default 1Mi events)")
		metricsOut = flag.String("metrics-out", "", "write a per-interval metrics time series (.csv, or .jsonl/.json for JSON lines)")
		interval   = flag.Uint64("interval", 0, "sampling interval in cycles for -metrics-out, which it requires (0 defaults to 10000)")
		pprofAddr  = flag.String("pprof", "", "serve live pprof+metrics on this address (e.g. :6060)")
	)
	flag.Parse()
	if *interval > 0 && *metricsOut == "" {
		// The samples would have no sink to go to.
		fmt.Fprintln(os.Stderr, "udpsim: -interval needs -metrics-out")
		os.Exit(2)
	}

	log := obs.NewLogger(os.Stderr, *verbose)
	fatal := func(msg string, args ...any) {
		log.Error(msg, args...)
		os.Exit(1)
	}

	if *pprofAddr != "" {
		_, stopDebug, err := obs.ServeDebug(*pprofAddr, log)
		if err != nil {
			fatal("pprof listen failed", "addr", *pprofAddr, "err", err)
		}
		defer stopDebug()
	}

	if *listMechs {
		tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		for _, d := range sim.MechanismDescriptors() {
			fmt.Fprintf(tw, "%s\t%s\n", d.Name, d.Doc)
		}
		tw.Flush()
		return
	}

	if *list {
		tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "WORKLOAD\tFUNCS\tFOOTPRINT\tCHARACTER")
		for _, p := range workload.All() {
			prog, err := sim.SharedImage(p)
			if err != nil {
				fatal("workload image failed", "workload", p.Name, "err", err)
			}
			fmt.Fprintf(tw, "%s\t%d\t%d KiB\t%s\n", p.Name, p.Funcs,
				prog.FootprintBytes()/1024, character(p))
		}
		tw.Flush()
		return
	}

	var cfg sim.Config
	if *traceIn != "" {
		src, err := trace.LoadSource(*traceIn)
		if err != nil {
			fatal("trace load failed", "path", *traceIn, "err", err)
		}
		workload.RegisterSource(src)
		cfg = sim.NewTraceConfig(src.Name(), src.SHA256(), sim.Mechanism(*mech))
		if *simpoints > 1 {
			// A trace records exactly one region; there is nothing to
			// re-seed a second simpoint from.
			fatal("-simpoints must be 1 when replaying a trace", "simpoints", *simpoints)
		}
		// The frontend runs ahead of retirement, so leave slack at the
		// tail of the recording; clamp -instrs instead of panicking
		// mid-run on a short trace.
		n, err := trace.FitRegion(src.Len(), *warmup, *instrs)
		if err != nil {
			fatal("trace too short for -warmup", "records", src.Len(), "warmup", *warmup)
		}
		if n < *instrs {
			log.Info("trace shorter than requested run; clamping -instrs",
				"records", src.Len(), "instrs", n)
		}
		*instrs = n
	} else {
		prof, ok := workload.ByName(*name)
		if !ok {
			fatal("unknown workload (use -list)", "workload", *name)
		}
		cfg = sim.NewConfig(prof, sim.Mechanism(*mech))
	}
	cfg.FTQDepth = *ftq
	cfg.BTBEntries = *btb
	cfg.ICacheBytes = *icache
	if w := sim.AutoWays(*icache); w > 0 {
		cfg.ICacheWays = w // keeps the set count a power of two for any size
	}
	cfg.MaxInstructions = *instrs
	cfg.WarmupInstructions = *warmup
	if *udpThresh > 0 {
		cfg.UDP.ConfidenceThreshold = *udpThresh
	}
	if !*udpHidden {
		cfg.UDP.HiddenBranchTableBits = 1 // effectively disabled (tiny, never confident)
		cfg.UDP.DisableHiddenTrigger = true
	}
	cfg.PredecodeBTBFill = *btbFill

	// Observability wiring: one observer per region (observers are
	// single-machine), fanned into shared sinks.
	metrics, err := obs.CreateMetricsFile(*metricsOut, interval)
	if err != nil {
		fatal("metrics-out create failed", "err", err)
	}
	observing := *traceOut != "" || metrics != nil
	var (
		obsMu     sync.Mutex
		observers = map[int]*obs.Observer{}
		attach    func(int, *sim.Machine)
	)
	if observing {
		attach = func(region int, m *sim.Machine) {
			o := &obs.Observer{Life: obs.NewLifecycle(), Interval: *interval}
			if *traceOut != "" {
				o.Trace = obs.NewTracer(*traceCap)
			}
			if metrics != nil {
				o.OnSample = metrics.Sample
			}
			m.AttachObserver(o)
			obsMu.Lock()
			observers[region] = o
			obsMu.Unlock()
		}
	}

	log.Debug("simulation starting", "workload", *name, "mechanism", *mech,
		"simpoints", *simpoints, "instrs", *instrs)
	results, agg, err := sim.RunSimpointsObserved(cfg, *simpoints, *parallel, attach)
	if err != nil {
		fatal("simulation failed", "err", err)
	}

	if err := metrics.Close(log); err != nil {
		fatal("metrics write failed", "err", err)
	}
	if *traceOut != "" {
		var regions []obs.TraceRegion
		var events int
		var dropped uint64
		for i := 0; i < len(results); i++ {
			o := observers[i]
			if o == nil || o.Trace == nil {
				continue
			}
			regions = append(regions, obs.TraceRegion{
				Workload: agg.Workload, Mechanism: string(agg.Mechanism),
				Region: i, Events: o.Trace.Events(),
			})
			events += o.Trace.Len()
			dropped += o.Trace.Dropped()
		}
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal("trace-out create failed", "err", err)
		}
		if err := obs.WriteChromeTrace(f, regions); err != nil {
			fatal("trace write failed", "err", err)
		}
		if err := f.Close(); err != nil {
			fatal("trace close failed", "err", err)
		}
		log.Info("trace written", "path", *traceOut, "events", events, "overwritten", dropped)
	}

	if *verbose {
		for i, r := range results {
			fmt.Printf("simpoint %d: %v\n", i, r)
		}
	}
	fmt.Printf("workload      %s\n", agg.Workload)
	fmt.Printf("mechanism     %s\n", agg.Mechanism)
	fmt.Printf("instructions  %d (%d simpoints)\n", agg.Instructions, len(results))
	fmt.Printf("cycles        %d\n", agg.Cycles)
	fmt.Printf("IPC           %.4f\n", agg.IPC)
	fmt.Printf("icache MPKI   %.2f\n", agg.IcacheMPKI)
	fmt.Printf("branch MPKI   %.2f (execute-time recoveries)\n", agg.BranchMPKI)
	fmt.Printf("timeliness    %.3f  (icache hits / (icache+fill-buffer) demand hits)\n", agg.Timeliness)
	fmt.Printf("on-path ratio %.3f  (on-path / all emitted prefetches)\n", agg.OnPathRatio)
	fmt.Printf("usefulness    %.3f  (useful / (useful+useless) prefetches)\n", agg.Usefulness)
	fmt.Printf("mean FTQ occ  %.1f (final depth %d)\n", agg.MeanFTQOcc, agg.FinalFTQDepth)
	fmt.Printf("prefetches    %d emitted (%d on-path, %d off-path, %d dropped)\n",
		agg.PrefetchesEmitted, agg.PrefetchesOnPath, agg.PrefetchesOffPath, agg.PrefetchesDropped)
	fmt.Printf("lost instrs   %.1f per kilo-instruction\n", agg.LostInstrsPKI)
	if agg.Lifecycle.Tracked {
		fmt.Printf("lifecycle     %s\n", agg.Lifecycle)
	}
	if agg.UDPStorage > 0 {
		fmt.Printf("UDP storage   %d bytes\n", agg.UDPStorage)
	}
	if *verbose {
		for _, r := range results {
			if r.MechanismSummary != "" {
				fmt.Printf("mechanism     %s\n", r.MechanismSummary)
			}
		}
		fmt.Printf("resolution    mean %.1f cycles, p99 ≤ %d\n", agg.ResolutionMean, agg.ResolutionP99)
		fmt.Printf("frontend      %+v\n", agg.FE)
		fmt.Printf("backend       %+v\n", agg.BE)
	}
}

func character(p workload.Profile) string {
	switch {
	case p.FracBiased < 0.2:
		return "sea of unpredictable branches"
	case p.FracBiased > 0.8:
		return "huge predictable footprint"
	default:
		return "server-class mixed control flow"
	}
}
