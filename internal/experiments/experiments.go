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

	// Interval, when non-zero together with Metrics, enables per-
	// interval time-series sampling (cycles per sample) for every
	// simulated region. Sampling does not change the simulated machine
	// or the result-cache key, so cached cells simply emit no samples —
	// samples come only from the cells actually simulated in this
	// process.
	Interval uint64
	// Metrics receives streamed interval samples when non-nil
	// (obs.MetricsWriter serializes concurrent regions).
	Metrics *obs.MetricsWriter
	// OnSample, when non-nil together with Interval, additionally
	// receives every interval sample as a typed callback — the hook the
	// daemon's SSE stream hangs off. Callbacks arrive from concurrently
	// simulating regions and must be safe for concurrent use.
	OnSample func(obs.IntervalSample)

	// Store, when non-nil, is the persistent result store this run reads
	// through and writes back to, overriding the process-global one
	// installed with SetResultStore. The daemon passes its own store here
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

// attach returns the per-region observer attach callback implementing
// Options.Interval/Metrics/OnSample streaming, or nil when sampling is
// disabled (the plain, zero-overhead path).
func (o Options) attach() func(int, *sim.Machine) {
	if o.Interval == 0 || (o.Metrics == nil && o.OnSample == nil) {
		return nil
	}
	w := o.Metrics
	cb := o.OnSample
	iv := o.Interval
	return func(region int, m *sim.Machine) {
		m.AttachObserver(&obs.Observer{
			Interval: iv,
			OnSample: func(s obs.IntervalSample) {
				if w != nil {
					_ = w.Write(s)
				}
				if cb != nil {
					cb(s)
				}
			},
		})
	}
}

// attachCell wraps attach() with the per-machine run-phase hook when
// span emission is on: warmup and measure become spans (tagged with
// workload/mechanism/region), and the measure phase feeds the
// per-mechanism run-duration histogram. The hook fires O(1) times per
// run, so the zero-alloc cycle-loop invariant is untouched.
func (o Options) attachCell(name string, mech sim.Mechanism) func(int, *sim.Machine) {
	obsAttach := o.attach()
	onSpan := o.OnSpan
	if onSpan == nil {
		return obsAttach
	}
	return func(region int, m *sim.Machine) {
		if obsAttach != nil {
			obsAttach(region, m)
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
						"workload":  name,
						"mechanism": string(mech),
						"region":    region,
					},
				})
				if phase == "measure" {
					obs.RunDurationUS.Observe(obs.SinceUS(phaseStart), string(mech))
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
	return o.OnSpan != nil && o.store() != nil
}

// run resolves one configuration over the option's simpoints through
// the cell protocol (resolveCells): memoized process-wide and
// singleflighted, so concurrent callers with the same canonical config
// key block on the first runner instead of simulating the same
// deterministic region twice. When a persistent ResultStore is
// installed (SetResultStore) the cache reads through it: an in-memory
// miss probes the store before simulating, and completed simulations
// are written back — so a daemon restart serves known configurations
// from disk. A lone cell has no stream to share, so it never batches.
func (o Options) run(name string, mech sim.Mechanism, mutate func(*sim.Config)) (sim.Result, error) {
	res, errs := resolveCells(o.ctx(), []cell{o.cell(name, mech, mutate)}, 1, false, nil)
	return res[0], errs[0]
}

// cell builds one grid cell. A "trace:<name>" cell resolves through the
// source registry (the trace must already be loaded and registered —
// cmd mains and ResolveTraces do that before any grid runs).
func (o Options) cell(name string, mech sim.Mechanism, mutate func(*sim.Config)) cell {
	var cfg sim.Config
	if tn, ok := strings.CutPrefix(name, "trace:"); ok {
		src, ok := workload.SourceByName(tn)
		if !ok {
			panic("experiments: trace workload " + tn + " not registered")
		}
		cfg = sim.NewTraceConfig(tn, strings.TrimPrefix(src.Key(), "trace:"), mech)
	} else {
		cfg = sim.NewConfig(workload.MustByName(name), mech)
	}
	cfg.MaxInstructions = o.Instructions
	cfg.WarmupInstructions = o.Warmup
	if mutate != nil {
		mutate(&cfg)
	}
	return cell{name: name, mech: mech, cfg: cfg, opts: o}
}

// SpeedupRow is one bar of a speedup figure.
type SpeedupRow struct {
	App string
	// Speedups maps series name to fractional IPC speedup over the
	// app's baseline.
	Speedups map[string]float64
}

// SweepSeries is one application's line across a parameter sweep.
type SweepSeries struct {
	App    string
	X      []int     // parameter values (FTQ depth, BTB entries)
	Values []float64 // metric at each X
}

// FTQDepths is the sweep grid used for Figs. 3-6 and 8.
var FTQDepths = []int{8, 12, 16, 24, 32, 48, 64, 96, 128}

// sweepMetric runs the FTQ sweep collecting one metric per depth. The
// whole apps × depths grid is submitted to the worker pool at once;
// series are assembled in input-grid order.
func (o Options) sweepMetric(metric func(sim.Result) float64) ([]SweepSeries, error) {
	apps := o.workloads()
	var jobs []jobSpec
	for _, app := range apps {
		for _, d := range FTQDepths {
			depth := d
			jobs = append(jobs, jobSpec{
				app:    app,
				mech:   sim.MechBaseline,
				mutate: func(c *sim.Config) { c.FTQDepth = depth },
			})
		}
	}
	results, err := o.runAll(jobs)
	if err != nil {
		return nil, err
	}
	var out []SweepSeries
	for ai, app := range apps {
		s := SweepSeries{App: app, X: FTQDepths}
		for di := range FTQDepths {
			s.Values = append(s.Values, metric(results[ai*len(FTQDepths)+di]))
		}
		out = append(out, s)
	}
	return out, nil
}

// Figure1 measures the IPC speedup of a perfect icache over the FDIP-32
// baseline for each application.
func Figure1(o Options) ([]SpeedupRow, error) {
	apps := o.workloads()
	mechs := []sim.Mechanism{sim.MechBaseline, sim.MechPerfectICache, sim.MechNoPrefetch}
	var jobs []jobSpec
	for _, app := range apps {
		for _, m := range mechs {
			jobs = append(jobs, jobSpec{app: app, mech: m})
		}
	}
	results, err := o.runAll(jobs)
	if err != nil {
		return nil, err
	}
	var rows []SpeedupRow
	for ai, app := range apps {
		base := results[ai*len(mechs)]
		rows = append(rows, SpeedupRow{App: app, Speedups: map[string]float64{
			"perfect-icache": results[ai*len(mechs)+1].Speedup(base),
			"no-prefetch":    results[ai*len(mechs)+2].Speedup(base),
		}})
	}
	return rows, nil
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
	apps := o.workloads()
	jobs := make([]jobSpec, len(apps))
	for i, app := range apps {
		jobs[i] = jobSpec{app: app, mech: sim.MechBaseline}
	}
	results, err := o.runAll(jobs)
	if err != nil {
		return nil, 0, 0, err
	}
	var rows []Table3Row
	for i, app := range apps {
		rows = append(rows, Table3Row{
			App:        app,
			OptimalFTQ: optima[app],
			Utility:    results[i].Usefulness,
			Timeliness: results[i].Timeliness,
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
func Figure11(o Options) ([]SpeedupRow, map[string]int, error) {
	_, optima, err := Figure3(o)
	if err != nil {
		return nil, nil, err
	}
	apps := o.workloads()
	stride := len(UFTQSeries) + 2 // baseline, UFTQ variants, OPT
	var jobs []jobSpec
	for _, app := range apps {
		jobs = append(jobs, jobSpec{app: app, mech: sim.MechBaseline})
		for _, mech := range UFTQSeries {
			jobs = append(jobs, jobSpec{app: app, mech: mech})
		}
		opt := optima[app]
		jobs = append(jobs, jobSpec{app: app, mech: sim.MechBaseline,
			mutate: func(c *sim.Config) { c.FTQDepth = opt }})
	}
	results, err := o.runAll(jobs)
	if err != nil {
		return nil, nil, err
	}
	var rows []SpeedupRow
	for ai, app := range apps {
		base := results[ai*stride]
		row := SpeedupRow{App: app, Speedups: map[string]float64{}}
		for mi, mech := range UFTQSeries {
			row.Speedups[string(mech)] = results[ai*stride+1+mi].Speedup(base)
		}
		row.Speedups["opt"] = results[ai*stride+stride-1].Speedup(base)
		rows = append(rows, row)
	}
	return rows, optima, nil
}

// MPKIRow is one application's icache MPKI under several mechanisms.
type MPKIRow struct {
	App  string
	MPKI map[string]float64
}

// Figure12 reports icache MPKI for baseline, the UFTQ variants, and OPT.
func Figure12(o Options) ([]MPKIRow, error) {
	_, optima, err := Figure3(o)
	if err != nil {
		return nil, err
	}
	apps := o.workloads()
	stride := len(UFTQSeries) + 2
	var jobs []jobSpec
	for _, app := range apps {
		jobs = append(jobs, jobSpec{app: app, mech: sim.MechBaseline})
		for _, mech := range UFTQSeries {
			jobs = append(jobs, jobSpec{app: app, mech: mech})
		}
		opt := optima[app]
		jobs = append(jobs, jobSpec{app: app, mech: sim.MechBaseline,
			mutate: func(c *sim.Config) { c.FTQDepth = opt }})
	}
	results, err := o.runAll(jobs)
	if err != nil {
		return nil, err
	}
	var rows []MPKIRow
	for ai, app := range apps {
		row := MPKIRow{App: app, MPKI: map[string]float64{}}
		row.MPKI["baseline"] = results[ai*stride].IcacheMPKI
		for mi, mech := range UFTQSeries {
			row.MPKI[string(mech)] = results[ai*stride+1+mi].IcacheMPKI
		}
		row.MPKI["opt"] = results[ai*stride+stride-1].IcacheMPKI
		rows = append(rows, row)
	}
	return rows, nil
}

// UDPSeries are the mechanisms of Fig. 13-15 (besides the baseline):
// UDP with the 8KB Bloom useful-set, the infinite-storage upper bound,
// the EIP 8KB comparator, and the ISO-storage 40KiB icache.
var UDPSeries = []string{"udp", "udp-infinite", "eip", "icache-40k"}

// Figure13 compares UDP, Infinite Storage, EIP-8KB and a 40K icache
// against the FDIP-32 baseline.
func Figure13(o Options) ([]SpeedupRow, error) {
	results, err := o.runUDPGrid()
	if err != nil {
		return nil, err
	}
	stride := len(UDPSeries) + 1
	var rows []SpeedupRow
	for ai, app := range o.workloads() {
		base := results[ai*stride]
		row := SpeedupRow{App: app, Speedups: map[string]float64{}}
		for si, series := range UDPSeries {
			row.Speedups[series] = results[ai*stride+1+si].Speedup(base)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// runUDPGrid submits the full apps × (baseline + UDPSeries) grid shared
// by Figs. 13-15; results are in grid order with stride
// len(UDPSeries)+1 per app (baseline first).
func (o Options) runUDPGrid() ([]sim.Result, error) {
	var jobs []jobSpec
	for _, app := range o.workloads() {
		jobs = append(jobs, jobSpec{app: app, mech: sim.MechBaseline})
		for _, series := range UDPSeries {
			j, err := udpSeriesJob(app, series)
			if err != nil {
				return nil, err
			}
			jobs = append(jobs, j)
		}
	}
	return o.runAll(jobs)
}

// udpSeriesJob maps a Fig. 13-15 series name to its job.
func udpSeriesJob(app, series string) (jobSpec, error) {
	switch series {
	case "udp":
		return jobSpec{app: app, mech: sim.MechUDP}, nil
	case "udp-infinite":
		return jobSpec{app: app, mech: sim.MechUDPInfinite}, nil
	case "eip":
		return jobSpec{app: app, mech: sim.MechEIP}, nil
	case "icache-40k":
		return jobSpec{app: app, mech: sim.MechBaseline, mutate: func(c *sim.Config) {
			c.ICacheBytes = 40 * 1024
			c.ICacheWays = sim.AutoWays(40 * 1024)
		}}, nil
	default:
		return jobSpec{}, fmt.Errorf("experiments: unknown UDP series %q", series)
	}
}

func (o Options) runUDPSeries(app, series string) (sim.Result, error) {
	j, err := udpSeriesJob(app, series)
	if err != nil {
		return sim.Result{}, err
	}
	return o.run(j.app, j.mech, j.mutate)
}

// Figure14 reports icache MPKI for the baseline and the Fig. 13 series.
func Figure14(o Options) ([]MPKIRow, error) {
	results, err := o.runUDPGrid()
	if err != nil {
		return nil, err
	}
	stride := len(UDPSeries) + 1
	var rows []MPKIRow
	for ai, app := range o.workloads() {
		row := MPKIRow{App: app, MPKI: map[string]float64{}}
		row.MPKI["baseline"] = results[ai*stride].IcacheMPKI
		for si, series := range UDPSeries {
			row.MPKI[series] = results[ai*stride+1+si].IcacheMPKI
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// LostRow is one application's instructions-lost-to-icache-miss count
// (per kilo-instruction) under several mechanisms.
type LostRow struct {
	App  string
	Lost map[string]float64
}

// Figure15 reports instructions lost to icache-miss fetch stalls.
func Figure15(o Options) ([]LostRow, error) {
	results, err := o.runUDPGrid()
	if err != nil {
		return nil, err
	}
	stride := len(UDPSeries) + 1
	var rows []LostRow
	for ai, app := range o.workloads() {
		row := LostRow{App: app, Lost: map[string]float64{}}
		row.Lost["baseline"] = results[ai*stride].LostInstrsPKI
		for si, series := range UDPSeries {
			row.Lost[series] = results[ai*stride+1+si].LostInstrsPKI
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// BTBSizes is the Fig. 16 sensitivity grid.
var BTBSizes = []int{1024, 2048, 4096, 8192, 16384}

// Figure16 reports UDP's speedup over the baseline at each BTB size.
func Figure16(o Options) ([]SweepSeries, error) {
	return o.pairedSweep(BTBSizes, func(c *sim.Config, v int) { c.BTBEntries = v })
}

// pairedSweep runs (baseline, udp) pairs across a parameter grid for
// every app and returns UDP's speedup series in grid order.
func (o Options) pairedSweep(grid []int, apply func(*sim.Config, int)) ([]SweepSeries, error) {
	apps := o.workloads()
	var jobs []jobSpec
	for _, app := range apps {
		for _, v := range grid {
			v := v
			jobs = append(jobs, jobSpec{app: app, mech: sim.MechBaseline,
				mutate: func(c *sim.Config) { apply(c, v) }})
			jobs = append(jobs, jobSpec{app: app, mech: sim.MechUDP,
				mutate: func(c *sim.Config) { apply(c, v) }})
		}
	}
	results, err := o.runAll(jobs)
	if err != nil {
		return nil, err
	}
	var out []SweepSeries
	for ai, app := range apps {
		s := SweepSeries{App: app, X: grid}
		for vi := range grid {
			base := results[(ai*len(grid)+vi)*2]
			udp := results[(ai*len(grid)+vi)*2+1]
			s.Values = append(s.Values, udp.Speedup(base))
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
	return o.pairedSweep(UDPFTQSizes, func(c *sim.Config, v int) { c.FTQDepth = v })
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
	return sxy / (sqrt(sxx) * sqrt(syy))
}

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Sqrt(x)
}

// SortedSeriesNames returns the map keys of a speedup row in stable
// order for rendering.
func SortedSeriesNames(rows []SpeedupRow) []string {
	seen := map[string]bool{}
	var names []string
	for _, r := range rows {
		for k := range r.Speedups {
			if !seen[k] {
				seen[k] = true
				names = append(names, k)
			}
		}
	}
	sort.Strings(names)
	return names
}
