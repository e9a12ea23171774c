package experiments

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"time"

	"udpsim/internal/obs"
	"udpsim/internal/sim"
)

// This file is the parallel run engine behind every figure/table
// driver, descriptor and sweep: the full grid of (workload, ConfigSpec)
// cells is materialized up front and executed on a bounded worker
// pool, while results are collected positionally so the output order —
// and therefore every rendered table, series and CSV — is byte-for-byte
// identical at any parallelism.
//
// The process-wide result cache is singleflighted: when two concurrent
// jobs (or two figures sharing a baseline) request the same canonical
// config key, the second blocks on the first runner instead of
// simulating the same deterministic region twice. Waiters never
// deadlock: a runner simulates every key it claimed before it waits on
// anyone else's, so every waiter's dependency is guaranteed to make
// progress (see resolveCells).

// resultCache memoizes completed runs process-wide: several figures
// share configurations (every speedup figure needs the same baselines,
// Fig. 11/12 and Table III all need the Fig. 3 sweep), and simulations
// are deterministic, so recomputing them is pure waste.
var (
	resultMu       sync.Mutex
	resultCache    = map[string]sim.Result{}
	resultInflight = map[string]*resultCall{}
)

type resultCall struct {
	done chan struct{}
	res  sim.Result
	err  error
}

// parallelism resolves the worker-pool width: Options.Parallelism when
// positive, else GOMAXPROCS.
func (o Options) parallelism() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// runAll resolves, for every app of the options, the cells specs(app)
// names, as one grid, and returns each app's results in spec order.
// Errors are aggregated (errors.Join) rather than short-circuiting, so
// a failed cell reports every failure of the grid at once. Cancellation
// (Options.Context) both skips cells that have not started and stops
// in-flight machines cooperatively.
func (o Options) runAll(specs func(app string) []ConfigSpec) ([][]sim.Result, error) {
	d := o.descriptor()
	apps := o.workloads()
	var cells []cell
	ends := make([]int, len(apps))
	for ai, app := range apps {
		for _, cs := range specs(app) {
			cells = append(cells, newCell(d, app, cs))
		}
		ends[ai] = len(cells)
	}
	// Live grid-cell progress for the /metrics endpoint.
	obs.JobsTotal.Add(float64(len(cells)))
	flat, errs := resolveCells(o, cells, o.parallelism(), o.Batch, func() { obs.JobsDone.Add(1) })
	results := make([][]sim.Result, len(apps))
	start := 0
	for ai, end := range ends {
		results[ai] = flat[start:end]
		start = end
	}
	return results, errors.Join(errs...)
}

// maxBatchSize caps how many machines share one lockstep batch. Past
// ~16 the scheduler's cursor scan and the per-machine cache footprint
// eat the locality win, and 16 matches the headline 16-config sweep.
const maxBatchSize = 16

// cell is one grid cell: its workload name for progress lines, its
// config label for interval samples, and its full config.
type cell struct {
	name  string
	label string
	cfg   sim.Config
}

// resolveCells takes every cell through the cell protocol: the memoized
// cache, then a wait on a key another runner is simulating, then the
// persistent store, then simulation, store write-back and publication.
// The protocol is one writer per key: this call claims every key it
// will simulate up front (so concurrent runners wait on it instead of
// simulating the same deterministic region twice), publishes each key
// as it completes, and only then waits for keys claimed by others —
// claimed keys always belong to a runner already executing, so the
// wait graph stays acyclic.
//
// Every cell of one call shares o: its simpoints, context, store,
// progress and observability hooks. batch chooses only how the claimed
// keys simulate: in lockstep groups per workload image
// (sim.RunBatchSimpoints), or one sim.RunSimpointsCtx per key on the
// worker pool. Results are bit-identical either way. onCellDone (if
// non-nil) fires once per finalized cell (the grid-cell progress
// counter).
func resolveCells(o Options, cells []cell, workers int, batch bool, onCellDone func()) ([]sim.Result, []error) {
	ctx := o.ctx()
	results := make([]sim.Result, len(cells))
	errs := make([]error, len(cells))
	done := func() {
		if onCellDone != nil {
			onCellDone()
		}
	}

	// group is one unique key this call claimed: the cell indices
	// sharing it and the inflight entry to resolve.
	type group struct {
		key   string
		call  *resultCall
		cells []int
	}
	var claimed []*group             // in first-cell order
	byKey := map[string]*group{}     // claimed groups
	waiting := map[int]*resultCall{} // cell -> another runner's inflight entry
	cached := map[int]sim.Result{}   // cells served from the in-memory cache

	resultMu.Lock()
	for i, c := range cells {
		key := CacheKey(c.cfg, o.Simpoints)
		if g, ok := byKey[key]; ok {
			g.cells = append(g.cells, i)
			continue
		}
		if r, ok := resultCache[key]; ok {
			cached[i] = r
			continue
		}
		if call, ok := resultInflight[key]; ok {
			waiting[i] = call
			continue
		}
		call := &resultCall{done: make(chan struct{})}
		resultInflight[key] = call
		g := &group{key: key, call: call, cells: []int{i}}
		byKey[key] = g
		claimed = append(claimed, g)
	}
	resultMu.Unlock()

	for i, r := range cached {
		obs.CacheHits.Add(1)
		results[i] = r
		o.cellProgress(cells[i], r, " (cached)")
		done()
	}

	// finish publishes one claimed key — cache, waiters, and every cell
	// of the group — exactly once.
	finish := func(g *group, res sim.Result, err error, how string) {
		resultMu.Lock()
		if err == nil {
			resultCache[g.key] = res
		}
		g.call.res, g.call.err = res, err
		delete(resultInflight, g.key)
		resultMu.Unlock()
		close(g.call.done)
		for _, i := range g.cells {
			results[i], errs[i] = res, err
			done()
		}
		if err == nil {
			o.cellProgress(cells[g.cells[0]], res, how)
		}
	}
	// complete publishes a simulated key, writing it back to the store.
	complete := func(g *group, res sim.Result, err error) {
		if err == nil {
			writeStart := time.Now()
			o.storeSave(g.key, res)
			if o.spanStore() {
				o.OnSpan(obs.Span{Name: "store-write", Start: writeStart, End: time.Now(),
					Args: map[string]any{"key": g.key}})
			}
		}
		finish(g, res, err, "")
	}

	// Persistent-store read-through for claimed keys; the misses
	// simulate.
	missed := make([]bool, len(claimed))
	_ = ForEach(len(claimed), workers, func(j int) error {
		g := claimed[j]
		readStart := time.Now()
		res, hit := o.storeLoad(g.key)
		if o.spanStore() {
			o.OnSpan(obs.Span{Name: "store-read", Start: readStart, End: time.Now(),
				Args: map[string]any{"key": g.key, "hit": hit}})
		}
		if hit {
			finish(g, res, nil, " (store)")
			return nil
		}
		obs.CacheMisses.Add(1)
		missed[j] = true
		return nil
	})
	var toRun []*group
	for j, g := range claimed {
		if missed[j] {
			toRun = append(toRun, g)
		}
	}

	if batch {
		// Group the work by workload image — with the call's one
		// simpoint count, the identity of the shared stream — and run
		// each group's configs in lockstep, maxBatchSize machines at a
		// time.
		var chunks [][]*group
		open := map[string]int{} // source key -> index of its open chunk
		for _, g := range toRun {
			ik := sim.SourceKey(cells[g.cells[0]].cfg)
			if j, ok := open[ik]; ok && len(chunks[j]) < maxBatchSize {
				chunks[j] = append(chunks[j], g)
				continue
			}
			open[ik] = len(chunks)
			chunks = append(chunks, []*group{g})
		}
		for _, chunk := range chunks {
			if err := ctx.Err(); err != nil {
				for _, g := range chunk {
					finish(g, sim.Result{}, err, "")
				}
				continue
			}
			cfgs := make([]sim.Config, len(chunk))
			atts := make([]func(int, *sim.Machine), len(chunk))
			for k, g := range chunk {
				c := cells[g.cells[0]]
				cfgs[k] = c.cfg
				atts[k] = o.attach(c)
			}
			res, rerrs := sim.RunBatchSimpoints(ctx, cfgs, o.simpoints(), workers,
				func(region, k int, m *sim.Machine) {
					if atts[k] != nil {
						atts[k](region, m)
					}
				})
			for k, g := range chunk {
				complete(g, res[k], rerrs[k])
			}
		}
	} else {
		_ = ForEach(len(toRun), workers, func(j int) error {
			g := toRun[j]
			if err := ctx.Err(); err != nil {
				finish(g, sim.Result{}, err, "")
				return nil
			}
			c := cells[g.cells[0]]
			_, res, err := sim.RunSimpointsCtx(ctx, c.cfg, o.Simpoints, 1, o.attach(c))
			complete(g, res, err)
			return nil
		})
	}

	// Finally resolve cells whose keys another runner claimed. That
	// runner held its claims before we claimed anything, so it completes
	// (or cancels) independently of us.
	for i, call := range waiting {
		obs.CacheInflightWaits.Add(1)
		select {
		case <-call.done:
		case <-ctx.Done():
			errs[i] = ctx.Err()
			done()
			continue
		}
		if canceled(call.err) && ctx.Err() == nil {
			// The claiming runner was cancelled, not this call: resolve
			// the cell afresh (alone, so unbatched).
			rs, es := resolveCells(o, cells[i:i+1], 1, false, nil)
			results[i], errs[i] = rs[0], es[0]
			done()
			continue
		}
		if call.err != nil {
			errs[i] = call.err
			done()
			continue
		}
		results[i] = call.res
		o.cellProgress(cells[i], call.res, " (cached)")
		done()
	}
	return results, errs
}

// canceled reports whether err is a context's cancellation.
func canceled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// cellProgress reports one resolved cell; how tags where the result
// came from (" (cached)", " (store)", or "" when simulated).
func (o Options) cellProgress(c cell, r sim.Result, how string) {
	o.progress("%s/%s ftq=%d: IPC %.4f%s", c.name, c.cfg.Mechanism, r.FinalFTQDepth, r.IPC, how)
}

// ForEach runs fn(i) for i in [0, n) on a bounded worker pool of the
// given width (<= 0 means GOMAXPROCS, 1 runs serially) and aggregates
// all errors — the engine primitive for grids whose per-cell work is
// not a plain Options.run call (Table I's trace characterization).
// fn must write its result into
// slot i of a caller-owned slice so output order stays deterministic.
func ForEach(n, workers int, fn func(int) error) error {
	return ForEachCtx(context.Background(), n, workers, fn)
}

// ForEachCtx is ForEach with cancellation: once ctx is done, iterations
// that have not started report ctx.Err() instead of running (in-flight
// iterations are the callee's responsibility — Options.run threads the
// same context into the machine loop). The aggregated error therefore
// contains ctx.Err() whenever the grid was cut short.
func ForEachCtx(ctx context.Context, n, workers int, fn func(int) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	errs := make([]error, n)
	run := func(i int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		return fn(i)
	}
	if workers == 1 || n <= 1 {
		for i := 0; i < n; i++ {
			errs[i] = run(i)
		}
		return errors.Join(errs...)
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			errs[i] = run(i)
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}
