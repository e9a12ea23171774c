// Package experiments regenerates every table and figure of the paper's
// evaluation: each Figure/Table function runs the required simulations
// and returns structured rows that cmd/figures renders and the benchmark
// harness asserts over.
//
// Shapes — who wins, by roughly what factor, where crossovers fall —
// are the reproduction target; absolute values differ from the paper's
// Scarab/trace setup (see EXPERIMENTS.md).
package experiments

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"udpsim/internal/obs"
	"udpsim/internal/sim"
	"udpsim/internal/workload"
)

// Options controls simulation effort; the defaults match cmd/figures.
type Options struct {
	// Instructions per simulated region (after warmup).
	Instructions uint64
	// Warmup instructions per region. Large-footprint learning
	// mechanisms (UDP) need multi-pass warmups.
	Warmup uint64
	// Simpoints per application.
	Simpoints int
	// Workloads restricts the evaluated applications (default: all 10).
	Workloads []string
	// Parallelism bounds how many simulations run concurrently
	// (<= 0 means GOMAXPROCS). Results are deterministic at any value:
	// jobs are collected in input-grid order and every machine is
	// seeded independently.
	Parallelism int
	// Progress, when non-nil, receives a line per completed run.
	// Invocations are serialized, but under parallelism the lines
	// arrive in completion order, not grid order.
	Progress func(string)

	// Batch groups grid cells that share a workload image (and simpoint
	// count) into lockstep batches: each group's architectural stream is
	// produced once per simpoint (sim.RunBatchSimpoints over a shared
	// workload tape) instead of once per cell. Results are bit-identical
	// to unbatched runs — the cache, the persistent store, and every
	// figure see the exact same values — so this is purely a speed knob.
	Batch bool

	// Context, when non-nil, cancels in-flight and pending simulations:
	// running machines stop within a few thousand simulated cycles,
	// queued grid cells are skipped, and the aggregated error contains
	// ctx.Err(). Nil means context.Background() (uncancellable, the
	// zero-overhead path).
	Context context.Context

	// Interval, when non-zero together with OnSample, enables per-
	// interval time-series sampling (cycles per sample) for every
	// simulated region. Sampling does not change the simulated machine
	// or the result-cache key, so cached cells simply emit no samples —
	// samples come only from the cells actually simulated in this
	// process.
	Interval uint64
	// OnSample receives every interval sample when non-nil: the CLIs
	// stream it into an obs.MetricsWriter, the daemon onto its SSE
	// stream. Callbacks arrive from concurrently simulating regions and
	// must be safe for concurrent use.
	OnSample func(obs.IntervalSample)

	// Store, when non-nil, is the persistent result store this run reads
	// through and writes back to. The daemon passes its own store here,
	// so several in-process server instances (tests, a restarted daemon)
	// keep distinct stores despite sharing the process.
	Store ResultStore

	// OnSpan, when non-nil, receives wall-clock lifecycle spans for the
	// cells this Options actually executes: store-read/store-write
	// around the persistent store, and warmup/measure per simulated
	// region. The daemon stamps each span with the owning job's trace ID
	// before recording, so a submission's whole engine journey lands on
	// one Perfetto timeline. Cached cells emit only the store-read probe
	// (there is nothing else to time). Callbacks arrive from
	// concurrently simulating regions and must be safe for concurrent
	// use.
	OnSpan func(obs.Span)
}

// DefaultOptions returns the evaluation configuration used by
// cmd/figures: regions are long enough for UDP's useful-set to converge
// on the multi-MB footprints.
func DefaultOptions() Options {
	return Options{
		Instructions: 500_000,
		Warmup:       2_000_000,
		Simpoints:    1,
	}
}

// QuickOptions returns a configuration for fast smoke runs (unit tests,
// -short benchmarks).
func QuickOptions() Options {
	return Options{
		Instructions: 120_000,
		Warmup:       150_000,
		Simpoints:    1,
	}
}

// simpoints normalizes the simpoint count the way CacheKey and the
// simpoint runners do (zero means one region).
func (o Options) simpoints() int {
	if o.Simpoints <= 0 {
		return 1
	}
	return o.Simpoints
}

func (o Options) workloads() []string {
	if len(o.Workloads) > 0 {
		return o.Workloads
	}
	return workload.Names
}

// progressMu serializes Progress callbacks: under the parallel engine
// several workers complete at once, and fanned-in lines must not
// interleave mid-callback.
var progressMu sync.Mutex

func (o Options) progress(format string, args ...any) {
	if o.Progress != nil {
		progressMu.Lock()
		defer progressMu.Unlock()
		o.Progress(fmt.Sprintf(format, args...))
	}
}

// ctx resolves the option's context (nil means Background).
func (o Options) ctx() context.Context {
	if o.Context != nil {
		return o.Context
	}
	return context.Background()
}

// attach returns the per-region attach callback of cell c, or nil
// when the options neither sample nor emit spans (the plain,
// zero-overhead path). Sampling (Options.Interval/OnSample) attaches an
// interval observer whose samples carry the cell's label as their
// config tag. Span emission (Options.OnSpan) hooks the machine's run
// phases: warmup and measure become spans (tagged with
// workload/mechanism/region), and the measure phase feeds the
// per-mechanism run-duration histogram. The hook fires O(1) times per
// run, so the zero-alloc cycle-loop invariant is untouched.
func (o Options) attach(c cell) func(int, *sim.Machine) {
	sample := o.Interval != 0 && o.OnSample != nil
	onSpan := o.OnSpan
	if !sample && onSpan == nil {
		return nil
	}
	mech := string(c.cfg.Mechanism)
	return func(region int, m *sim.Machine) {
		if sample {
			m.AttachObserver(&obs.Observer{Interval: o.Interval, OnSample: o.OnSample, Config: c.label})
		}
		if onSpan == nil {
			return
		}
		// Per-machine closure state: one machine's transitions are
		// sequential even under the parallel batch scheduler, so no lock.
		var phase string
		var phaseStart time.Time
		m.SetPhaseHook(func(p string) {
			now := time.Now()
			if phase == "warmup" || phase == "measure" {
				onSpan(obs.Span{
					Name:  phase,
					Start: phaseStart,
					End:   now,
					Args: map[string]any{
						"workload":  c.name,
						"mechanism": mech,
						"region":    region,
					},
				})
				if phase == "measure" {
					obs.RunDurationUS.Observe(obs.SinceUS(phaseStart), mech)
				}
			}
			phase, phaseStart = p, now
		})
	}
}

// spanStore reports whether this Options should emit store spans: a
// span callback is installed and a persistent store actually exists
// (no store → no I/O to time, and a no-op span per cell would be pure
// timeline noise).
func (o Options) spanStore() bool {
	return o.OnSpan != nil && o.Store != nil
}

// run resolves one cell — workload name under cs — over the option's
// simpoints through the cell protocol (resolveCells): memoized
// process-wide and singleflighted, so concurrent callers with the same
// canonical config key block on the first runner instead of simulating
// the same deterministic region twice. When Options.Store is set the
// cache reads through it: an in-memory miss probes the store before
// simulating, and completed simulations are written back — so a daemon
// restart serves known configurations from disk. A lone cell has no
// stream to share, so it never batches.
func (o Options) run(name string, cs ConfigSpec) (sim.Result, error) {
	res, errs := resolveCells(o, []cell{newCell(o.descriptor(), name, cs)}, 1, false, nil)
	return res[0], errs[0]
}

// Sample simulates one region of workload w under each of specs and
// streams every interval sample, one per o.Interval cycles, to
// o.OnSample, tagged with its spec's label. Each cell builds through
// CellConfig like any grid cell, but always simulates: the result cache
// keeps results, not samples, so a cell that a figure already ran would
// emit none. Cells run on o's worker pool; one cell's samples arrive in
// cycle order.
func Sample(o Options, w string, specs []ConfigSpec) error {
	if o.Interval == 0 || o.OnSample == nil {
		return fmt.Errorf("experiments: sampling %s needs Options.Interval and OnSample", w)
	}
	if tn, ok := strings.CutPrefix(w, "trace:"); ok {
		if _, ok := workload.SourceByName(tn); !ok {
			return fmt.Errorf("experiments: trace workload %q is not loaded", tn)
		}
	} else if _, ok := workload.ByName(w); !ok {
		return fmt.Errorf("experiments: unknown workload %q", w)
	}
	o.Workloads, o.Simpoints = []string{w}, 1
	d := o.descriptor()
	return ForEachCtx(o.ctx(), len(specs), o.parallelism(), func(i int) error {
		c := newCell(d, w, specs[i])
		if _, _, err := sim.RunSimpointsCtx(o.ctx(), c.cfg, 1, 1, o.attach(c)); err != nil {
			return fmt.Errorf("experiments: %s/%s: %w", w, specs[i].Label, err)
		}
		return nil
	})
}

// descriptor spells the options' region and trace workloads as a
// descriptor, so a figure grid's cells build through CellConfig exactly
// like a descriptor's. A "trace:<name>" workload must already be loaded
// and registered (FlagTraces and ResolveTraces do that before any grid
// runs); its cells key on the registered content hash.
func (o Options) descriptor() *Descriptor {
	d := &Descriptor{Instructions: o.Instructions, Warmup: o.Warmup, Simpoints: o.Simpoints}
	for _, w := range o.workloads() {
		if tn, ok := strings.CutPrefix(w, "trace:"); ok {
			src, ok := workload.SourceByName(tn)
			if !ok {
				panic("experiments: trace workload " + tn + " not registered")
			}
			d.Traces = append(d.Traces, TraceSpec{Name: tn, SHA256: strings.TrimPrefix(src.Key(), "trace:")})
		}
	}
	return d
}

// mechSpec is the Table II machine running mech, labelled with the
// mechanism's name.
func mechSpec(mech sim.Mechanism) ConfigSpec {
	return ConfigSpec{Label: string(mech), Mechanism: string(mech)}
}

// BarRow is one application's group of bars in a bar figure.
type BarRow struct {
	App string
	// Values maps series name to the bar's value: a fractional IPC
	// speedup over the app's baseline, an icache MPKI, or instructions
	// lost per kilo-instruction, depending on the figure.
	Values map[string]float64
}

// bars runs, for every app, the baseline followed by series(app), and
// returns one row per app with a bar per series label. With a nil
// metric each bar is that series' IPC speedup over the baseline;
// otherwise every bar, the baseline's own included, is metric of its
// result.
func (o Options) bars(series func(app string) []ConfigSpec, metric func(sim.Result) float64) ([]BarRow, error) {
	apps := o.workloads()
	specs := make(map[string][]ConfigSpec, len(apps))
	for _, app := range apps {
		specs[app] = append([]ConfigSpec{mechSpec(sim.MechBaseline)}, series(app)...)
	}
	results, err := o.runAll(func(app string) []ConfigSpec { return specs[app] })
	if err != nil {
		return nil, err
	}
	rows := make([]BarRow, len(apps))
	for ai, app := range apps {
		base := results[ai][0]
		row := BarRow{App: app, Values: make(map[string]float64, len(specs[app]))}
		if metric != nil {
			row.Values["baseline"] = metric(base)
		}
		for k, cs := range specs[app][1:] {
			r := results[ai][1+k]
			if metric == nil {
				row.Values[cs.Label] = r.Speedup(base)
			} else {
				row.Values[cs.Label] = metric(r)
			}
		}
		rows[ai] = row
	}
	return rows, nil
}

func icacheMPKI(r sim.Result) float64 { return r.IcacheMPKI }

// SweepSeries is one application's line across a parameter sweep.
type SweepSeries struct {
	App    string
	X      []int     // parameter values (FTQ depth, BTB entries)
	Values []float64 // metric at each X
}

// FTQDepths is the sweep grid used for Figs. 3-6 and 8.
var FTQDepths = []int{8, 12, 16, 24, 32, 48, 64, 96, 128}

// sweepMetric runs the baseline FTQ sweep collecting one metric per
// depth. The whole apps × depths grid is submitted to the worker pool
// at once; series are assembled in input-grid order.
func (o Options) sweepMetric(metric func(sim.Result) float64) ([]SweepSeries, error) {
	specs := make([]ConfigSpec, len(FTQDepths))
	for i, d := range FTQDepths {
		specs[i] = ConfigSpec{Label: fmt.Sprintf("ftq%d", d), Mechanism: string(sim.MechBaseline), FTQ: d}
	}
	results, err := o.runAll(func(string) []ConfigSpec { return specs })
	if err != nil {
		return nil, err
	}
	var out []SweepSeries
	for ai, app := range o.workloads() {
		s := SweepSeries{App: app, X: FTQDepths}
		for _, r := range results[ai] {
			s.Values = append(s.Values, metric(r))
		}
		out = append(out, s)
	}
	return out, nil
}

// Figure1 measures the IPC speedup of a perfect icache over the FDIP-32
// baseline for each application.
func Figure1(o Options) ([]BarRow, error) {
	series := []ConfigSpec{mechSpec(sim.MechPerfectICache), mechSpec(sim.MechNoPrefetch)}
	return o.bars(func(string) []ConfigSpec { return series }, nil)
}

// Figure3 sweeps FTQ depth and reports the IPC speedup over depth 32
// per application, plus the per-app optimum.
func Figure3(o Options) ([]SweepSeries, map[string]int, error) {
	series, err := o.sweepMetric(func(r sim.Result) float64 { return r.IPC })
	if err != nil {
		return nil, nil, err
	}
	// Locate optima on the raw IPCs, then normalize to depth 32.
	optima := make(map[string]int)
	for i := range series {
		s := &series[i]
		bestIdx := 0
		for j, v := range s.Values {
			if v > s.Values[bestIdx] {
				bestIdx = j
			}
		}
		optima[s.App] = s.X[bestIdx]
	}
	if err := normalizeSweep(series, 32); err != nil {
		return nil, nil, err
	}
	return series, optima, nil
}

// normalizeSweep rewrites every series value into a fractional speedup
// over the series value at x = baseX. A missing or non-positive
// baseline is an error: silently leaving a series as raw IPCs would
// mix absolute and relative values across apps (the old fall-through
// bug).
func normalizeSweep(series []SweepSeries, baseX int) error {
	for i := range series {
		s := &series[i]
		base := valueAt(s, baseX)
		if base <= 0 {
			return fmt.Errorf("experiments: %s has no positive baseline at x=%d (got %g); cannot normalize",
				s.App, baseX, base)
		}
		for j, v := range s.Values {
			s.Values[j] = v/base - 1
		}
	}
	return nil
}

// Figure4 reports the timeliness ratio across FTQ depths.
func Figure4(o Options) ([]SweepSeries, error) {
	return o.sweepMetric(func(r sim.Result) float64 { return r.Timeliness })
}

// Figure5 reports the on-path prefetch ratio across FTQ depths.
func Figure5(o Options) ([]SweepSeries, error) {
	return o.sweepMetric(func(r sim.Result) float64 { return r.OnPathRatio })
}

// Figure6 reports prefetch usefulness across FTQ depths.
func Figure6(o Options) ([]SweepSeries, error) {
	return o.sweepMetric(func(r sim.Result) float64 { return r.Usefulness })
}

// Figure8 reports mean FTQ occupancy across FTQ depths.
func Figure8(o Options) ([]SweepSeries, error) {
	return o.sweepMetric(func(r sim.Result) float64 { return r.MeanFTQOcc })
}

// Table3Row is one application's line of Table III.
type Table3Row struct {
	App        string
	OptimalFTQ int
	Utility    float64 // usefulness at FTQ=32
	Timeliness float64 // timeliness at FTQ=32
}

// Table3 reproduces the optimal-FTQ/utility/timeliness table, including
// the correlation coefficients between optimal depth and each ratio.
func Table3(o Options) ([]Table3Row, float64, float64, error) {
	_, optima, err := Figure3(o)
	if err != nil {
		return nil, 0, 0, err
	}
	base := []ConfigSpec{mechSpec(sim.MechBaseline)}
	results, err := o.runAll(func(string) []ConfigSpec { return base })
	if err != nil {
		return nil, 0, 0, err
	}
	var rows []Table3Row
	for i, app := range o.workloads() {
		rows = append(rows, Table3Row{
			App:        app,
			OptimalFTQ: optima[app],
			Utility:    results[i][0].Usefulness,
			Timeliness: results[i][0].Timeliness,
		})
	}
	var fs, us, ts []float64
	for _, r := range rows {
		fs = append(fs, float64(r.OptimalFTQ))
		us = append(us, r.Utility)
		ts = append(ts, r.Timeliness)
	}
	return rows, Correlation(fs, us), Correlation(fs, ts), nil
}

// UFTQSeries are the mechanisms of Fig. 11/12.
var UFTQSeries = []sim.Mechanism{sim.MechUFTQAUR, sim.MechUFTQATR, sim.MechUFTQATRAUR}

// Figure11 compares the UFTQ variants and the OPT oracle (per-app best
// fixed depth from the Fig. 3 sweep) against the FDIP-32 baseline.
func Figure11(o Options) ([]BarRow, map[string]int, error) {
	return o.uftqBars(nil)
}

// Figure12 reports icache MPKI for baseline, the UFTQ variants, and OPT.
func Figure12(o Options) ([]BarRow, error) {
	rows, _, err := o.uftqBars(icacheMPKI)
	return rows, err
}

// uftqBars runs the apps × (baseline, UFTQSeries, OPT) grid shared by
// Figs. 11/12, OPT being the baseline at the app's optimal depth from
// the Fig. 3 sweep, and returns its bars (see bars for metric) with
// those optima.
func (o Options) uftqBars(metric func(sim.Result) float64) ([]BarRow, map[string]int, error) {
	_, optima, err := Figure3(o)
	if err != nil {
		return nil, nil, err
	}
	rows, err := o.bars(func(app string) []ConfigSpec {
		var specs []ConfigSpec
		for _, mech := range UFTQSeries {
			specs = append(specs, mechSpec(mech))
		}
		return append(specs, ConfigSpec{Label: "opt", Mechanism: string(sim.MechBaseline), FTQ: optima[app]})
	}, metric)
	return rows, optima, err
}

// UDPSeries are the cells of Figs. 13-15 besides the baseline: UDP with
// the 8KB Bloom useful-set, the infinite-storage upper bound, the EIP
// 8KB comparator, and the ISO-storage 40KiB icache.
var UDPSeries = []ConfigSpec{
	mechSpec(sim.MechUDP),
	mechSpec(sim.MechUDPInfinite),
	mechSpec(sim.MechEIP),
	{Label: "icache-40k", Mechanism: string(sim.MechBaseline), ICacheKB: 40},
}

// Figure13 compares UDP, Infinite Storage, EIP-8KB and a 40K icache
// against the FDIP-32 baseline.
func Figure13(o Options) ([]BarRow, error) {
	return o.udpBars(nil)
}

// Figure14 reports icache MPKI for the baseline and the Fig. 13 series.
func Figure14(o Options) ([]BarRow, error) {
	return o.udpBars(icacheMPKI)
}

// Figure15 reports instructions lost to icache-miss fetch stalls (per
// kilo-instruction) for the baseline and the Fig. 13 series.
func Figure15(o Options) ([]BarRow, error) {
	return o.udpBars(func(r sim.Result) float64 { return r.LostInstrsPKI })
}

// udpBars returns the bars of the Figs. 13-15 grid, apps × (baseline +
// UDPSeries) (see bars for metric).
func (o Options) udpBars(metric func(sim.Result) float64) ([]BarRow, error) {
	return o.bars(func(string) []ConfigSpec { return UDPSeries }, metric)
}

// BTBSizes is the Fig. 16 sensitivity grid.
var BTBSizes = []int{1024, 2048, 4096, 8192, 16384}

// Figure16 reports UDP's speedup over the baseline at each BTB size.
func Figure16(o Options) ([]SweepSeries, error) {
	return o.pairedSweep(BTBSizes, func(v int) ConfigSpec {
		return ConfigSpec{Label: fmt.Sprintf("btb%d", v), BTB: v}
	})
}

// pairedSweep runs a (baseline, udp) pair at every grid value for every
// app — both cells take spec(v)'s overrides and label — and returns
// UDP's speedup series in grid order.
func (o Options) pairedSweep(grid []int, spec func(v int) ConfigSpec) ([]SweepSeries, error) {
	var specs []ConfigSpec
	for _, v := range grid {
		cs := spec(v)
		for _, mech := range []sim.Mechanism{sim.MechBaseline, sim.MechUDP} {
			cs.Mechanism = string(mech)
			specs = append(specs, cs)
		}
	}
	results, err := o.runAll(func(string) []ConfigSpec { return specs })
	if err != nil {
		return nil, err
	}
	var out []SweepSeries
	for ai, app := range o.workloads() {
		s := SweepSeries{App: app, X: grid}
		for vi := range grid {
			s.Values = append(s.Values, results[ai][2*vi+1].Speedup(results[ai][2*vi]))
		}
		out = append(out, s)
	}
	return out, nil
}

// UDPFTQSizes is the Fig. 17 sensitivity grid.
var UDPFTQSizes = []int{16, 32, 64, 128}

// Figure17 reports UDP's speedup over a same-depth baseline at each FTQ
// size.
func Figure17(o Options) ([]SweepSeries, error) {
	return o.pairedSweep(UDPFTQSizes, func(v int) ConfigSpec {
		return ConfigSpec{Label: fmt.Sprintf("ftq%d", v), FTQ: v}
	})
}

// valueAt returns the series value at parameter x (0 if absent).
func valueAt(s *SweepSeries, x int) float64 {
	for i, v := range s.X {
		if v == x {
			return s.Values[i]
		}
	}
	return 0
}

// Correlation returns the Pearson correlation coefficient of two
// equal-length samples.
func Correlation(xs, ys []float64) float64 {
	n := len(xs)
	if n == 0 || n != len(ys) {
		return 0
	}
	var mx, my float64
	for i := range xs {
		mx += xs[i]
		my += ys[i]
	}
	mx /= float64(n)
	my /= float64(n)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / (math.Sqrt(sxx) * math.Sqrt(syy))
}

// SortedSeriesNames returns the series names of bar rows in the one
// order every table and chart of them uses: sorted, each name once.
func SortedSeriesNames(rows []BarRow) []string {
	seen := map[string]bool{}
	var names []string
	for _, r := range rows {
		for k := range r.Values {
			if !seen[k] {
				seen[k] = true
				names = append(names, k)
			}
		}
	}
	sort.Strings(names)
	return names
}
