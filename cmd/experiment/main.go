// Command experiment runs a JSON experiment descriptor (the analogue of
// the paper artifact's `./run.sh -e isca.json` workflow) and writes a
// CSV of results plus an optional speedup table. Long grids can stream
// a per-interval metrics time series and serve live pprof and
// /metrics progress counters while they run.
//
//	experiment -f configs/isca.json -o results.csv
//	experiment -f configs/isca.json -speedup-base baseline
//	experiment -f configs/isca.json -metrics-out grid.jsonl -pprof :6060
//
// With -tune the command runs an autotuning search over a parameter
// space instead of a fixed grid: seeded random sampling, successive
// halving over region budgets, then local refinement around the
// incumbent. Frontier updates stream to stderr; the final best config
// prints as a table. -daemon drives the same search through a
// udpsimd's POST /v1/tune (sharing its dedup store) instead of
// simulating in-process.
//
//	experiment -tune configs/tune-smoke.json
//	experiment -tune configs/tune-smoke.json -daemon http://127.0.0.1:8091
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"text/tabwriter"

	"udpsim/internal/experiments"
	"udpsim/internal/obs"
)

func main() {
	var (
		file     = flag.String("f", "", "descriptor JSON file")
		out      = flag.String("o", "", "CSV output path (default stdout)")
		base     = flag.String("speedup-base", "", "also print per-workload speedups over this config label")
		parallel = flag.Int("j", 0, "max concurrent simulations (0 = GOMAXPROCS); CSV row order is unchanged")
		batch    = flag.Bool("batch", false, "lockstep-batch grid cells sharing a workload image (one shared instruction stream per batch; CSV is byte-identical); not with -tune")
		traceIn  = flag.String("trace", "", "comma-separated recorded trace files (.udpt2) appended to the descriptor's trace set; the workload grid becomes these traces when the descriptor names none")
		verbose  = flag.Bool("v", false, "print per-run progress (debug-level logs)")

		tuneFile = flag.String("tune", "", "parameter-space JSON: run an autotuning search over the space instead of a grid")
		daemon   = flag.String("daemon", "", "udpsimd base URL for -tune: drive the search through POST /v1/tune instead of in-process")
		storeDir = flag.String("store", "", "result-store directory for a local -tune run (the acquisition cache; re-probing a known cell costs zero simulations)")

		metricsOut = flag.String("metrics-out", "", "stream a per-interval metrics time series for every simulated cell (.csv or .jsonl)")
		interval   = flag.Uint64("interval", 0, "sampling interval in cycles for -metrics-out (0 with -metrics-out defaults to 10000)")
		pprofAddr  = flag.String("pprof", "", "serve live pprof+metrics on this address (e.g. :6060)")
	)
	flag.Parse()

	log := obs.NewLogger(os.Stderr, *verbose)
	fatal := func(msg string, args ...any) {
		log.Error(msg, args...)
		os.Exit(1)
	}

	if *tuneFile != "" {
		if *batch {
			fmt.Fprintln(os.Stderr, "experiment: -batch applies to descriptor grids, not to -tune")
			os.Exit(2)
		}
		runTuneCmd(*tuneFile, *daemon, *storeDir, *parallel, *verbose, log, fatal)
		return
	}

	if *file == "" {
		flag.Usage()
		os.Exit(2)
	}

	if *pprofAddr != "" {
		_, stopDebug, err := obs.ServeDebug(*pprofAddr, log)
		if err != nil {
			fatal("pprof listen failed", "addr", *pprofAddr, "err", err)
		}
		defer stopDebug()
	}

	raw, err := os.ReadFile(*file)
	if err != nil {
		fatal("descriptor read failed", "err", err)
	}
	d, err := experiments.AddDescriptorTraces(raw, *traceIn)
	if err != nil {
		fatal("descriptor parse failed", "err", err)
	}
	if err := experiments.ResolveTraces(d); err != nil {
		fatal("trace resolution failed", "err", err)
	}

	obsOpts := experiments.Options{Batch: *batch}
	metrics, err := obs.CreateMetricsFile(*metricsOut, interval)
	if err != nil {
		fatal("metrics-out create failed", "err", err)
	}
	if metrics != nil {
		obsOpts.OnSample = metrics.Sample
		obsOpts.Interval = *interval
	}

	var progress func(string)
	if *verbose {
		progress = func(s string) { log.Debug("cell done", "cell", s) }
	}
	log.Info("experiment starting", "name", d.Name,
		"workloads", len(d.Workloads), "configs", len(d.Configs), "simpoints", d.Simpoints)
	results, err := experiments.RunDescriptorObserved(d, progress, *parallel, obsOpts)
	if err != nil {
		fatal("experiment failed", "err", err)
	}

	if err := metrics.Close(log); err != nil {
		fatal("metrics write failed", "err", err)
	}

	w := os.Stdout
	if *out != "" {
		of, err := os.Create(*out)
		if err != nil {
			fatal("output create failed", "err", err)
		}
		defer of.Close()
		w = of
	}
	if err := experiments.WriteCSV(w, results); err != nil {
		fatal("CSV write failed", "err", err)
	}

	if *base != "" {
		rows, err := experiments.SpeedupTable(results, *base)
		if err != nil {
			fatal("speedup table failed", "err", err)
		}
		names := experiments.SortedSeriesNames(rows)
		tw := tabwriter.NewWriter(os.Stderr, 2, 4, 2, ' ', 0)
		fmt.Fprintf(tw, "workload\t%s\n", strings.Join(names, "\t"))
		for _, r := range rows {
			fmt.Fprintf(tw, "%s", r.App)
			for _, nm := range names {
				fmt.Fprintf(tw, "\t%+.1f%%", r.Values[nm]*100)
			}
			fmt.Fprintln(tw)
		}
		tw.Flush()
	}
}
