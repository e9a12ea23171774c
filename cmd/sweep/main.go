// Command sweep runs parameter sweeps over FTQ depth, BTB size, or
// icache size for one workload and mechanism, printing a CSV-ish table
// suitable for plotting. Each swept value is one descriptor config run
// on the experiment engine, so a row measures the same region as the
// same cell of `experiment`, `udpsim` and the figures.
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

	d := &experiments.Descriptor{
		Name:         "sweep-" + *param,
		Workloads:    []string{*name},
		Instructions: *instrs,
		Warmup:       *warmup,
		Simpoints:    1,
	}
	grid, err := parseGrid(*param, *values)
	if err != nil {
		fatal("bad sweep grid", "err", err)
	}
	for _, v := range grid {
		cs, err := paramSpec(*param, *mech, v)
		if err != nil {
			fatal("bad sweep grid", "err", err)
		}
		d.Configs = append(d.Configs, cs)
	}
	if *traceIn != "" {
		if err := experiments.FlagTraces(d, *traceIn); err != nil {
			fatal("trace load failed", "err", err)
		}
		if d.Instructions < *instrs {
			log.Info("trace shorter than requested run; clamping -instrs", "instrs", d.Instructions)
		}
	}
	if err := d.Validate(); err != nil {
		fatal("bad sweep", "err", err)
	}
	if len(d.Workloads) != 1 {
		fatal("sweep runs one workload or one -trace file", "workloads", len(d.Workloads))
	}

	opts := experiments.Options{Batch: *batch}
	metrics, err := obs.CreateMetricsFile(*metricsOut, interval)
	if err != nil {
		fatal("metrics-out create failed", "err", err)
	}
	if metrics != nil {
		opts.OnSample = metrics.Sample
		opts.Interval = *interval
	}
	var progress func(string)
	if *verbose {
		progress = func(s string) { log.Debug("sweep cell done", "cell", s) }
	}
	results, err := experiments.RunDescriptorObserved(d, progress, *parallel, opts)
	if err != nil {
		fatal("sweep failed", "err", err)
	}
	if err := metrics.Close(log); err != nil {
		fatal("metrics write failed", "err", err)
	}

	fmt.Printf("# workload=%s mechanism=%s param=%s\n", strings.TrimPrefix(d.Workloads[0], "trace:"), *mech, *param)
	fmt.Println("value,ipc,icache_mpki,timeliness,onpath_ratio,usefulness,mean_ftq_occ,lost_pki")
	for i, v := range grid {
		fmt.Println(row(v, results[i].Result))
	}
}

// row is the CSV row of swept value v.
func row(v int, r sim.Result) string {
	return fmt.Sprintf("%d,%.4f,%.2f,%.3f,%.3f,%.3f,%.1f,%.0f",
		v, r.IPC, r.IcacheMPKI, r.Timeliness, r.OnPathRatio, r.Usefulness, r.MeanFTQOcc, r.LostInstrsPKI)
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
		return experiments.FTQDepths, nil
	case "btb":
		return experiments.BTBSizes, nil
	case "icache":
		return []int{16 * 1024, 32 * 1024, 64 * 1024, 128 * 1024}, nil
	default:
		return nil, fmt.Errorf("unknown param %q (ftq, btb, icache)", param)
	}
}

// paramSpec is the descriptor config of one swept value, labelled
// param+value (the config tag of its -metrics-out rows). ConfigSpec
// treats zero as "Table II default", so values must be positive, and
// it sizes the icache in whole KiB.
func paramSpec(param, mech string, v int) (experiments.ConfigSpec, error) {
	cs := experiments.ConfigSpec{Label: param + strconv.Itoa(v), Mechanism: mech}
	if v <= 0 {
		return cs, fmt.Errorf("%s value %d is not positive", param, v)
	}
	switch param {
	case "ftq":
		cs.FTQ = v
	case "btb":
		cs.BTB = v
	case "icache":
		if v%1024 != 0 {
			return cs, fmt.Errorf("icache size %d is not a whole KiB", v)
		}
		cs.ICacheKB = v / 1024
	default:
		return cs, fmt.Errorf("unknown param %q (ftq, btb, icache)", param)
	}
	return cs, nil
}
