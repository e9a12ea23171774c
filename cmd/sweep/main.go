// Command sweep runs parameter sweeps over FTQ depth, BTB size, or
// icache size for one workload and mechanism, printing a CSV-ish table
// suitable for plotting.
//
// Examples:
//
//	sweep -workload verilator -param ftq
//	sweep -workload xgboost -param btb -mechanism udp
//	sweep -workload mysql -param icache -values 16384,32768,65536
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"udpsim/internal/experiments"
	"udpsim/internal/obs"
	"udpsim/internal/sim"
	"udpsim/internal/trace"
	"udpsim/internal/workload"
)

func main() {
	var (
		name     = flag.String("workload", "mysql", "application to simulate")
		traceIn  = flag.String("trace", "", "sweep over a recorded trace file (.udpt2) instead of -workload")
		mech     = flag.String("mechanism", "baseline", "prefetch mechanism")
		param    = flag.String("param", "ftq", "swept parameter: ftq, btb, icache")
		values   = flag.String("values", "", "comma-separated sweep values (defaults per param)")
		instrs   = flag.Uint64("instrs", 500_000, "instructions per run")
		warmup   = flag.Uint64("warmup", 500_000, "warmup instructions")
		parallel = flag.Int("j", 0, "max concurrent simulations (0 = GOMAXPROCS); CSV row order is unchanged")
		batch    = flag.Bool("batch", false, "lockstep-batch the sweep over one shared instruction stream (CSV is byte-identical)")
		verbose  = flag.Bool("v", false, "debug-level progress logs")

		metricsOut = flag.String("metrics-out", "", "stream a per-interval metrics time series for every swept run (.csv or .jsonl)")
		interval   = flag.Uint64("interval", 0, "sampling interval in cycles for -metrics-out (0 with -metrics-out defaults to 10000)")
		pprofAddr  = flag.String("pprof", "", "serve live pprof+metrics on this address (e.g. :6060)")
	)
	flag.Parse()

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

	var (
		baseConfig func(sim.Mechanism) sim.Config
		prog       *workload.Program
	)
	if *traceIn != "" {
		src, err := trace.LoadSource(*traceIn)
		if err != nil {
			fatal("trace load failed", "path", *traceIn, "err", err)
		}
		workload.RegisterSource(src)
		*name = src.Name()
		n, err := trace.FitRegion(src.Len(), *warmup, *instrs)
		if err != nil {
			fatal("trace too short for -warmup", "records", src.Len(), "warmup", *warmup)
		}
		if n < *instrs {
			log.Info("trace shorter than requested run; clamping -instrs", "instrs", n)
		}
		*instrs = n
		baseConfig = func(m sim.Mechanism) sim.Config {
			return sim.NewTraceConfig(src.Name(), src.SHA256(), m)
		}
		prog, err = src.Image()
		if err != nil {
			fatal("trace image failed", "err", err)
		}
	} else {
		prof, ok := workload.ByName(*name)
		if !ok {
			fatal("unknown workload", "workload", *name)
		}
		baseConfig = func(m sim.Mechanism) sim.Config {
			return sim.NewConfig(prof, m)
		}
		var err error
		prog, err = sim.SharedImage(prof)
		if err != nil {
			fatal("workload image failed", "err", err)
		}
	}

	grid, err := parseGrid(*param, *values)
	if err != nil {
		fatal("bad sweep grid", "err", err)
	}

	if *metricsOut != "" && *interval == 0 {
		*interval = 10_000
	}
	var metrics *obs.MetricsWriter
	if *metricsOut != "" {
		f, err := os.Create(*metricsOut)
		if err != nil {
			fatal("metrics-out create failed", "err", err)
		}
		defer f.Close()
		metrics = obs.NewMetricsWriter(f, obs.FormatForPath(*metricsOut))
	}

	cellConfig := func(i int) sim.Config {
		cfg := baseConfig(sim.Mechanism(*mech))
		cfg.MaxInstructions = *instrs
		cfg.WarmupInstructions = *warmup
		applyParam(&cfg, *param, grid[i])
		return cfg
	}
	// One observer per machine; the metrics writer serializes the
	// concurrently swept runs. The swept value is stamped into the
	// salt column so rows stay attributable.
	attach := func(i int, m *sim.Machine) {
		if metrics == nil {
			return
		}
		o := &obs.Observer{
			Interval: *interval,
			OnSample: func(s obs.IntervalSample) { _ = metrics.Write(s) },
		}
		m.AttachObserver(o)
		o.Salt = uint64(grid[i])
	}

	// Run the whole grid; results land in grid order so the CSV is
	// identical at any -j, batched or not.
	results := make([]sim.Result, len(grid))
	if *batch {
		// Lockstep mode: every swept machine reads one shared
		// architectural stream (a tape of the executor, or the decoded
		// trace) instead of re-executing it per cell.
		cfgs := make([]sim.Config, len(grid))
		for i := range grid {
			cfgs[i] = cellConfig(i)
		}
		res, errs := sim.RunBatchCtx(nil, cfgs, *parallel, attach)
		for i, e := range errs {
			if e != nil {
				err = fmt.Errorf("value %d: %w", grid[i], e)
				break
			}
			results[i] = res[i]
			log.Debug("sweep cell done", "param", *param, "value", grid[i], "ipc", results[i].IPC)
		}
	} else {
		err = experiments.ForEach(len(grid), *parallel, func(i int) error {
			m, err := sim.NewMachineWithProgram(cellConfig(i), prog)
			if err != nil {
				return fmt.Errorf("value %d: %w", grid[i], err)
			}
			attach(i, m)
			results[i] = m.Run()
			log.Debug("sweep cell done", "param", *param, "value", grid[i], "ipc", results[i].IPC)
			return nil
		})
	}
	if err != nil {
		fatal("sweep failed", "err", err)
	}
	if metrics != nil {
		if err := metrics.Err(); err != nil {
			fatal("metrics write failed", "err", err)
		}
		log.Info("metrics written", "path", *metricsOut, "rows", metrics.Rows())
	}

	fmt.Printf("# workload=%s mechanism=%s param=%s\n", *name, *mech, *param)
	fmt.Println("value,ipc,icache_mpki,timeliness,onpath_ratio,usefulness,mean_ftq_occ,lost_pki")
	for i, v := range grid {
		r := results[i]
		fmt.Printf("%d,%.4f,%.2f,%.3f,%.3f,%.3f,%.1f,%.0f\n",
			v, r.IPC, r.IcacheMPKI, r.Timeliness, r.OnPathRatio, r.Usefulness, r.MeanFTQOcc, r.LostInstrsPKI)
	}
}

func parseGrid(param, values string) ([]int, error) {
	if values != "" {
		var out []int
		for _, s := range strings.Split(values, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				return nil, fmt.Errorf("bad value %q: %v", s, err)
			}
			out = append(out, v)
		}
		return out, nil
	}
	switch param {
	case "ftq":
		return []int{8, 12, 16, 24, 32, 48, 64, 96, 128}, nil
	case "btb":
		return []int{1024, 2048, 4096, 8192, 16384}, nil
	case "icache":
		return []int{16 * 1024, 32 * 1024, 64 * 1024, 128 * 1024}, nil
	default:
		return nil, fmt.Errorf("unknown param %q (ftq, btb, icache)", param)
	}
}

func applyParam(cfg *sim.Config, param string, v int) {
	switch param {
	case "ftq":
		cfg.FTQDepth = v
	case "btb":
		cfg.BTBEntries = v
	case "icache":
		cfg.ICacheBytes = v
		// Pick the associativity automatically so non-power-of-two
		// sizes (40 KiB, 48 KiB, ...) keep a power-of-two set count;
		// sim.NewMachineWithProgram rejects invalid geometries.
		if w := sim.AutoWays(v); w > 0 {
			cfg.ICacheWays = w
		}
	}
}
