// Command figures regenerates the paper's evaluation tables and
// figures, printing the same rows/series the paper plots. Beyond the
// paper set it renders a cycle-resolved timeline figure from the
// observability layer's interval sampler, and long regenerations can
// stream a metrics time series and serve live pprof and /metrics progress.
//
// Examples:
//
//	figures -all                 # every figure and table (slow)
//	figures -fig 13              # UDP speedups
//	figures -table 3             # optimal FTQ / utility / timeliness
//	figures -fig 3 -quick        # fast, low-fidelity smoke run
//	figures -fig 16 -workloads xgboost,mysql
//	figures -timeline mysql -svg out/   # IPC + FTQ depth over time
//	figures -all -metrics-out all.jsonl -pprof :6060
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"text/tabwriter"

	"udpsim/internal/experiments"
	"udpsim/internal/obs"
	"udpsim/internal/plot"
	"udpsim/internal/sim"
	"udpsim/internal/workload"
)

// logger is the process-wide structured logger (re-created in main once
// the -v flag is parsed).
var logger = obs.NewLogger(os.Stderr, false)

func main() {
	var (
		fig       = flag.Int("fig", 0, "figure number to regenerate (1, 3, 4, 5, 6, 8, 11-17)")
		table     = flag.Int("table", 0, "table number to regenerate (1, 2, 3)")
		all       = flag.Bool("all", false, "regenerate everything")
		timeline  = flag.String("timeline", "", "render the interval-sampler timeline figure for this workload, or for the -trace file of that name (IPC and FTQ depth over time)")
		tlMechs   = flag.String("timeline-mechs", "baseline,udp", "comma-separated mechanisms for -timeline")
		quick     = flag.Bool("quick", false, "low-fidelity fast run")
		instrs    = flag.Uint64("instrs", 0, "override instructions per region")
		warmup    = flag.Uint64("warmup", 0, "override warmup instructions")
		simpoints = flag.Int("simpoints", 0, "override simpoints per app")
		apps      = flag.String("workloads", "", "comma-separated workload subset")
		traceIn   = flag.String("trace", "", "comma-separated recorded trace files (.udpt2) to use as the workload set instead of the synthetic corpus")
		svgDir    = flag.String("svg", "", "also write FigureNN.svg files into this directory")
		parallel  = flag.Int("j", 0, "max concurrent simulations (0 = GOMAXPROCS); output is identical at any -j")
		batch     = flag.Bool("batch", false, "lockstep-batch grid cells sharing a workload image (one shared instruction stream per batch; output is byte-identical)")
		verbose   = flag.Bool("v", false, "print per-run progress (debug-level logs)")

		metricsOut = flag.String("metrics-out", "", "stream a per-interval metrics time series for every simulated cell (.csv or .jsonl)")
		interval   = flag.Uint64("interval", 0, "sampling interval in cycles for -metrics-out/-timeline (0 defaults to 10000)")
		pprofAddr  = flag.String("pprof", "", "serve live pprof+metrics on this address (e.g. :6060)")
	)
	flag.Parse()

	logger = obs.NewLogger(os.Stderr, *verbose)
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}

	if *pprofAddr != "" {
		_, stopDebug, err := obs.ServeDebug(*pprofAddr, logger)
		if err != nil {
			fatal("pprof listen failed", "addr", *pprofAddr, "err", err)
		}
		defer stopDebug()
	}

	o := experiments.DefaultOptions()
	if *quick {
		o = experiments.QuickOptions()
	}
	if *instrs > 0 {
		o.Instructions = *instrs
	}
	if *warmup > 0 {
		o.Warmup = *warmup
	}
	if *simpoints > 0 {
		o.Simpoints = *simpoints
	}
	if *apps != "" {
		o.Workloads = strings.Split(*apps, ",")
	}
	if *traceIn != "" {
		d := &experiments.Descriptor{Instructions: o.Instructions, Warmup: o.Warmup}
		if err := experiments.FlagTraces(d, *traceIn); err != nil {
			fatal("trace load failed", "err", err)
		}
		if d.Instructions < o.Instructions {
			logger.Info("trace shorter than requested run; clamping -instrs", "instrs", d.Instructions)
		}
		// A trace records exactly one region at one salt; multi-simpoint
		// schedules have nothing further to sample.
		o.Workloads, o.Instructions, o.Simpoints = d.Workloads, d.Instructions, 1
	}
	tl, err := timelineWorkload(*timeline, o.Workloads, *traceIn != "")
	if err != nil {
		fatal("bad -timeline", "err", err)
	}
	o.Parallelism = *parallel
	o.Batch = *batch
	if *verbose {
		o.Progress = func(s string) { logger.Debug("run done", "run", s) }
	}

	metrics, err := obs.CreateMetricsFile(*metricsOut, interval)
	if err != nil {
		fatal("metrics-out create failed", "err", err)
	}
	if metrics != nil {
		o.OnSample = metrics.Sample
		o.Interval = *interval
	}

	var figs []int
	var tables []int
	switch {
	case *all:
		for _, f := range figures {
			figs = append(figs, f.num)
		}
		tables = []int{1, 2, 3}
	case *fig != 0:
		figs = []int{*fig}
	case *table != 0:
		tables = []int{*table}
	case *timeline != "":
		// Timeline-only invocation; handled below.
	default:
		flag.Usage()
		os.Exit(2)
	}

	for _, t := range tables {
		if err := renderTable(t, o); err != nil {
			fatal("table failed", "table", t, "err", err)
		}
	}
	for _, f := range figs {
		if err := renderFigure(os.Stdout, f, o, *svgDir); err != nil {
			fatal("figure failed", "fig", f, "err", err)
		}
	}
	if tl != "" {
		if err := renderTimeline(tl, strings.Split(*tlMechs, ","), o, *interval, *svgDir); err != nil {
			fatal("timeline failed", "workload", tl, "err", err)
		}
	}

	if err := metrics.Close(logger); err != nil {
		fatal("metrics write failed", "err", err)
	}
}

// saveSVG writes one rendered figure file.
func saveSVG(dir string, n int, svg string) error {
	return saveNamedSVG(dir, fmt.Sprintf("Figure%02d.svg", n), svg)
}

// saveNamedSVG writes one rendered figure file under an explicit name.
func saveNamedSVG(dir, name, svg string) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(svg), 0o644); err != nil {
		return err
	}
	logger.Info("figure written", "path", path)
	return nil
}

// timelineWorkload is the workload that -timeline app names. Under
// -trace (traced) it must be one of the loaded recordings, named by
// its file, by its workload name with or without the "trace:" prefix,
// or by the synthetic app it shadows: `-timeline mysql -trace
// mysql.udpt2` picks trace:mysql-trace.
func timelineWorkload(app string, workloads []string, traced bool) (string, error) {
	if !traced || app == "" {
		return app, nil
	}
	w := "trace:" + experiments.TraceName(strings.TrimPrefix(app, "trace:"))
	if !slices.Contains(workloads, w) {
		return "", fmt.Errorf("timeline %s names none of the -trace workloads (%s)", app, strings.Join(workloads, ", "))
	}
	return w, nil
}

// renderTimeline runs one region per mechanism with the interval
// sampler attached and renders cycle-resolved IPC and FTQ-depth line
// charts — the observability layer's view of how UFTQ window decisions
// and UDP learning play out over a run, which the paper's end-of-run
// aggregates average away. Its cells are the engine's: w names a
// synthetic workload or a loaded "trace:<name>".
func renderTimeline(w string, mechs []string, o experiments.Options, interval uint64, svgDir string) error {
	if interval == 0 {
		interval = obs.DefaultInterval
	}
	specs := make([]experiments.ConfigSpec, len(mechs))
	for i, mech := range mechs {
		mech = strings.TrimSpace(mech)
		if slices.ContainsFunc(specs[:i], func(cs experiments.ConfigSpec) bool { return cs.Label == mech }) {
			return fmt.Errorf("timeline %s: mechanism %q listed twice", w, mech)
		}
		specs[i] = experiments.ConfigSpec{Label: mech, Mechanism: mech}
	}
	var mu sync.Mutex
	byLabel := map[string][]obs.IntervalSample{}
	o.Interval = interval
	o.OnSample = func(s obs.IntervalSample) {
		mu.Lock()
		byLabel[s.Config] = append(byLabel[s.Config], s)
		mu.Unlock()
	}
	if err := experiments.Sample(o, w, specs); err != nil {
		return fmt.Errorf("timeline %s: %w", w, err)
	}
	type mechSeries struct {
		mech    string
		samples []obs.IntervalSample
	}
	var all []mechSeries
	for _, cs := range specs {
		logger.Debug("timeline region done", "mechanism", cs.Label, "samples", len(byLabel[cs.Label]))
		all = append(all, mechSeries{mech: cs.Label, samples: byLabel[cs.Label]})
	}

	// Align series on the shortest run so every chart column has a
	// value for every mechanism (plot.Lines requires equal lengths).
	n := len(all[0].samples)
	for _, s := range all {
		n = min(n, len(s.samples))
	}
	if n == 0 {
		return fmt.Errorf("timeline %s: no interval samples (instrs too small for interval %d?)", w, interval)
	}
	ipc := plot.Chart{Title: fmt.Sprintf("Timeline — %s IPC per %d-cycle interval", w, interval), YLabel: "IPC"}
	ftq := plot.Chart{Title: fmt.Sprintf("Timeline — %s FTQ depth per %d-cycle interval", w, interval), YLabel: "FTQ depth"}
	for i := 0; i < n; i++ {
		lbl := fmt.Sprintf("%dk", all[0].samples[i].Cycle/1000)
		ipc.XLabels = append(ipc.XLabels, lbl)
		ftq.XLabels = append(ftq.XLabels, lbl)
	}
	for _, s := range all {
		iv := make([]float64, n)
		fv := make([]float64, n)
		for i := 0; i < n; i++ {
			iv[i] = s.samples[i].IPC
			fv[i] = float64(s.samples[i].FTQDepth)
		}
		ipc.Series = append(ipc.Series, plot.Series{Name: s.mech, Values: iv})
		ftq.Series = append(ftq.Series, plot.Series{Name: s.mech, Values: fv})
	}

	fmt.Printf("Timeline — %s, %d-cycle intervals (%d samples)\n", w, interval, n)
	tw := newTW(os.Stdout)
	fmt.Fprintf(tw, "cycle")
	for _, s := range all {
		fmt.Fprintf(tw, "\t%s IPC\t%s FTQ", s.mech, s.mech)
	}
	fmt.Fprintln(tw)
	step := max(1, n/20) // cap the printed table at ~20 rows
	for i := 0; i < n; i += step {
		fmt.Fprintf(tw, "%d", all[0].samples[i].Cycle)
		for _, s := range all {
			fmt.Fprintf(tw, "\t%.3f\t%d", s.samples[i].IPC, s.samples[i].FTQDepth)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	fmt.Println()

	file := strings.ReplaceAll(w, ":", "-")
	if svg, err := plot.Lines(ipc); err == nil {
		if err := saveNamedSVG(svgDir, fmt.Sprintf("Timeline-%s-ipc.svg", file), svg); err != nil {
			return err
		}
	}
	if svg, err := plot.Lines(ftq); err == nil {
		if err := saveNamedSVG(svgDir, fmt.Sprintf("Timeline-%s-ftq.svg", file), svg); err != nil {
			return err
		}
	}
	return nil
}

func renderTable(n int, o experiments.Options) error {
	switch n {
	case 1:
		return renderTable1(o)
	case 2:
		return renderTable2()
	case 3:
		return renderTable3(o)
	default:
		return fmt.Errorf("unknown table %d (have 1, 2, 3)", n)
	}
}

// renderTable1 prints the workload characterization.
func renderTable1(o experiments.Options) error {
	rows, err := experiments.Table1(o)
	if err != nil {
		return err
	}
	fmt.Println("Table I — Workload characterization (synthetic stand-ins)")
	tw := newTW(os.Stdout)
	fmt.Fprintln(tw, "Application\tStatic code\tDynamic footprint\tBranches\tTaken\tIcache MPKI\tBranch MPKI\tBaseline IPC")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d KiB\t%d KiB\t%.1f%%\t%.1f%%\t%.1f\t%.1f\t%.3f\n",
			r.App, r.StaticKB, r.DynamicKB, r.BranchPct, r.TakenPct, r.IcacheMPKI, r.BranchMPKI, r.BaselineIPC)
	}
	return tw.Flush()
}

// renderTable2 prints the simulated-system configuration (Table II).
func renderTable2() error {
	cfg := sim.NewConfig(workload.MustByName("mysql"), sim.MechBaseline)
	fmt.Println("Table II — Simulated System")
	tw := newTW(os.Stdout)
	rows := [][2]string{
		{"CPU", "Sunny-Cove-like (simulated)"},
		{"Frontend width and retirement", fmt.Sprintf("%d-way", cfg.Width)},
		{"Functional Units", fmt.Sprintf("%d ALU, %d Load, %d Store", cfg.ALUs, cfg.LoadPorts, cfg.StorePorts)},
		{"Branch Predictor", "TAGE-SC-L"},
		{"Branch Target Buffer (BTB)", fmt.Sprintf("%d entries", cfg.BTBEntries)},
		{"Indirect Branch Target Buffer", fmt.Sprintf("%d entries", cfg.IndirectEntries)},
		{"ROB", fmt.Sprintf("%d entries", cfg.ROBSize)},
		{"Reservation Station", fmt.Sprintf("%d entries (unified)", cfg.RSSize)},
		{"Data Prefetcher", "Stream"},
		{"Instruction Prefetcher", "FDIP"},
		{"Load Buffer", fmt.Sprintf("%d entries", cfg.LoadBuffer)},
		{"Store Buffer", fmt.Sprintf("%d entries", cfg.StoreBuffer)},
		{"L1 instruction cache", fmt.Sprintf("%d KiB, %d-way", cfg.ICacheBytes/1024, cfg.ICacheWays)},
		{"L1 data cache", fmt.Sprintf("%d KiB, %d-way", cfg.L1DBytes/1024, cfg.L1DWays)},
		{"L2 unified cache", fmt.Sprintf("%d KiB, %d-way", cfg.L2Bytes/1024, cfg.L2Ways)},
		{"LLC unified cache", fmt.Sprintf("%d MiB, %d-way", cfg.LLCBytes/1024/1024, cfg.LLCWays)},
		{"L1 D-cache latency", fmt.Sprintf("%d cycles", cfg.L1DLatency)},
		{"L1 I-cache latency", "3 cycles (pipelined)"},
		{"L2 latency", fmt.Sprintf("%d cycles", cfg.L2Latency)},
		{"LLC latency", fmt.Sprintf("%d cycles", cfg.LLCLatency)},
		{"Memory", fmt.Sprintf("%d-cycle DRAM, %d-cycle burst occupancy", cfg.DRAMLatency, cfg.DRAMBurstCycles)},
		{"FTQ blocks per cycle", fmt.Sprintf("%d", cfg.BlocksPerCycle)},
		{"FTQ block size", "32 B"},
		{"FTQ depth (baseline)", fmt.Sprintf("%d", cfg.FTQDepth)},
	}
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\n", r[0], r[1])
	}
	return tw.Flush()
}

func renderTable3(o experiments.Options) error {
	rows, corrU, corrT, err := experiments.Table3(o)
	if err != nil {
		return err
	}
	fmt.Println("Table III — Optimal FTQ size, utility and timeliness (FTQ=32)")
	tw := newTW(os.Stdout)
	fmt.Fprintln(tw, "Application\tOptimal FTQ\tUtility\tTimeliness")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%.2f\t%.2f\n", r.App, r.OptimalFTQ, r.Utility, r.Timeliness)
	}
	fmt.Fprintf(tw, "Correl. Coefficient\t-\t%.2f\t%.2f\n", corrU, corrT)
	return tw.Flush()
}

// figure is how one paper figure is printed and plotted. Every figure
// takes one of two shapes: per-application grouped bars (bars set) or
// per-application lines across a swept parameter (any other figure).
type figure struct {
	num          int
	table, chart string // titles of the printed table and of the SVG chart
	bars         func(experiments.Options) ([]experiments.BarRow, error)
	sweep        func(experiments.Options) ([]experiments.SweepSeries, error)
	cell         func(float64) string // formats one table value
	percent      bool                 // the chart's y axis is in percent
	ylabel       string
	average      bool // a bar table ends with each series' mean
}

// fixed formats table values with a fmt verb.
func fixed(verb string) func(float64) string {
	return func(v float64) string { return fmt.Sprintf(verb, v) }
}

// signedPercent formats a fractional speedup as a signed percentage.
func signedPercent(v float64) string { return fmt.Sprintf("%+.1f%%", v*100) }

// figure11 drops the optima experiments.Figure11 also returns.
func figure11(o experiments.Options) ([]experiments.BarRow, error) {
	rows, _, err := experiments.Figure11(o)
	return rows, err
}

// figures lists every paper figure, in -all order.
var figures = []figure{
	{num: 1, table: "Figure 1 — Perfect icache speedup over FDIP-32 baseline", chart: "Figure 1 — Perfect icache speedup over FDIP-32",
		bars: experiments.Figure1, cell: signedPercent, percent: true, ylabel: "IPC speedup", average: true},
	// Fig. 3 is a sweep that renderFigure runs itself, to also list the
	// optima experiments.Figure3 returns with it.
	{num: 3, table: "Figure 3 — IPC speedup over FTQ=32 across FTQ depths", chart: "Figure 3 — IPC speedup over FTQ=32 across FTQ depths",
		cell: fixed("%+.3f"), percent: true, ylabel: "speedup"},
	{num: 4, table: "Figure 4 — Timeliness (icache/(icache+fill-buffer)) across FTQ depths", chart: "Figure 4 — Timeliness across FTQ depths",
		sweep: experiments.Figure4, cell: fixed("%.3f"), ylabel: "icache/(icache+fill-buffer)"},
	{num: 5, table: "Figure 5 — On-path prefetch ratio across FTQ depths", chart: "Figure 5 — On-path prefetch ratio across FTQ depths",
		sweep: experiments.Figure5, cell: fixed("%.3f"), ylabel: "on-path ratio"},
	{num: 6, table: "Figure 6 — Prefetch usefulness across FTQ depths", chart: "Figure 6 — Prefetch usefulness across FTQ depths",
		sweep: experiments.Figure6, cell: fixed("%.3f"), ylabel: "useful ratio"},
	{num: 8, table: "Figure 8 — Mean FTQ occupancy across FTQ depths", chart: "Figure 8 — Mean FTQ occupancy across FTQ depths",
		sweep: experiments.Figure8, cell: fixed("%.1f"), ylabel: "mean occupancy"},
	{num: 11, table: "Figure 11 — UFTQ variants vs OPT (IPC speedup over FDIP-32)", chart: "Figure 11 — UFTQ variants vs OPT",
		bars: figure11, cell: signedPercent, percent: true, ylabel: "IPC speedup", average: true},
	{num: 12, table: "Figure 12 — Icache MPKI: baseline vs UFTQ variants vs OPT", chart: "Figure 12 — Icache MPKI: baseline vs UFTQ variants vs OPT",
		bars: experiments.Figure12, cell: fixed("%.1f"), ylabel: "icache MPKI"},
	{num: 13, table: "Figure 13 — UDP / Infinite Storage / EIP-8KB / 40K icache (IPC speedup)", chart: "Figure 13 — UDP / Infinite / EIP-8KB / 40K icache",
		bars: experiments.Figure13, cell: signedPercent, percent: true, ylabel: "IPC speedup", average: true},
	{num: 14, table: "Figure 14 — Icache MPKI across techniques", chart: "Figure 14 — Icache MPKI across techniques",
		bars: experiments.Figure14, cell: fixed("%.1f"), ylabel: "icache MPKI"},
	{num: 15, table: "Figure 15 — Instructions lost to icache misses (per kilo-instruction)", chart: "Figure 15 — Instructions lost to icache misses",
		bars: experiments.Figure15, cell: fixed("%.0f"), ylabel: "instructions lost per kilo-instruction"},
	{num: 16, table: "Figure 16 — UDP speedup across BTB sizes", chart: "Figure 16 — UDP speedup across BTB sizes",
		sweep: experiments.Figure16, cell: fixed("%+.3f"), percent: true, ylabel: "speedup"},
	{num: 17, table: "Figure 17 — UDP speedup across FTQ sizes", chart: "Figure 17 — UDP speedup across FTQ sizes",
		sweep: experiments.Figure17, cell: fixed("%+.3f"), percent: true, ylabel: "speedup"},
}

// renderFigure runs figure n, prints its table to w and writes its SVG
// into svgDir. A figure with no data prints an empty table and no SVG.
func renderFigure(w io.Writer, n int, o experiments.Options, svgDir string) error {
	i := slices.IndexFunc(figures, func(f figure) bool { return f.num == n })
	if i < 0 {
		return fmt.Errorf("unknown figure %d (have 1, 3, 4, 5, 6, 8, 11-17)", n)
	}
	f := figures[i]
	var svg string
	var plotErr error
	var optima map[string]int // Fig. 3's one extra: each app's optimal FTQ depth
	if f.bars != nil {
		rows, err := f.bars(o)
		if err != nil {
			return err
		}
		svg, plotErr = f.renderBars(w, rows)
	} else {
		var series []experiments.SweepSeries
		var err error
		if n == 3 {
			series, optima, err = experiments.Figure3(o)
		} else {
			series, err = f.sweep(o)
		}
		if err != nil {
			return err
		}
		svg, plotErr = f.renderSweep(w, series)
	}
	if plotErr == nil {
		if err := saveSVG(svgDir, n, svg); err != nil {
			return err
		}
	}
	if optima != nil {
		fmt.Fprintln(w, "Per-application optimal FTQ depth:")
		apps := make([]string, 0, len(optima))
		for a := range optima {
			apps = append(apps, a)
		}
		sort.Strings(apps)
		for _, a := range apps {
			fmt.Fprintf(w, "  %-11s %d\n", a, optima[a])
		}
	}
	return nil
}

// renderBars prints rows as a table, one column per series, and
// returns their grouped bar chart.
func (f figure) renderBars(w io.Writer, rows []experiments.BarRow) (string, error) {
	names := experiments.SortedSeriesNames(rows)
	fmt.Fprintln(w, f.table)
	tw := newTW(w)
	fmt.Fprintf(tw, "app\t%s\n", strings.Join(names, "\t"))
	apps := make([]string, len(rows))
	data := make(map[string]map[string]float64, len(rows))
	for i, r := range rows {
		apps[i] = r.App
		data[r.App] = r.Values
		fmt.Fprint(tw, r.App)
		for _, nm := range names {
			fmt.Fprintf(tw, "\t%s", f.cell(r.Values[nm]))
		}
		fmt.Fprintln(tw)
	}
	if f.average {
		fmt.Fprint(tw, "average")
		for _, nm := range names {
			var sum float64
			for _, r := range rows {
				sum += r.Values[nm]
			}
			fmt.Fprintf(tw, "\t%s", f.cell(sum/float64(len(rows))))
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	fmt.Fprintln(w)

	c := plot.FromSpeedupRows(f.chart, apps, names, data)
	c.YLabel, c.Percent = f.ylabel, f.percent
	return plot.Bars(c)
}

// renderSweep prints series as a table, one column per swept value,
// and returns their line chart.
func (f figure) renderSweep(w io.Writer, series []experiments.SweepSeries) (string, error) {
	fmt.Fprintln(w, f.table)
	tw := newTW(w)
	c := plot.Chart{Title: f.chart, YLabel: f.ylabel, Percent: f.percent}
	if len(series) > 0 {
		fmt.Fprint(tw, "app")
		for _, x := range series[0].X {
			fmt.Fprintf(tw, "\t%d", x)
			c.XLabels = append(c.XLabels, strconv.Itoa(x))
		}
		fmt.Fprintln(tw)
	}
	for _, s := range series {
		fmt.Fprint(tw, s.App)
		for _, v := range s.Values {
			fmt.Fprintf(tw, "\t%s", f.cell(v))
		}
		fmt.Fprintln(tw)
		c.Series = append(c.Series, plot.Series{Name: s.App, Values: s.Values})
	}
	tw.Flush()
	fmt.Fprintln(w)
	return plot.Lines(c)
}

func newTW(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}
