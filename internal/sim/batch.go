package sim

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"udpsim/internal/frontend"
	"udpsim/internal/isa"
	"udpsim/internal/workload"
)

// Batched lockstep simulation: K config variants of one workload region
// step over a single shared architectural stream. For a synthetic
// workload the executor runs exactly once, inside a workload.Tape, and
// every machine's oracle reads the tape through its own TapeReader. A
// trace is already decoded in memory with random access, so machines
// over a trace read it directly and no tape is needed. Wrong-path
// divergence stays local to each frontend exactly as in an independent
// run: the stream carries only the on-path instructions, and each
// frontend walks the static image itself for (possibly wrong-path)
// fetch.
//
// Each machine runs through the same Machine.advance that RunCtx calls,
// one runStride slice at a time, so it sees the identical instruction
// stream, step sequence, phase transitions and snapshot point; batched
// results are therefore bit-for-bit equal to unbatched ones (asserted
// by TestRunBatchEquivalence). The scheduler only decides whose slice
// runs next: smallest stream cursor first, which bounds tape memory to
// the cursor spread of the group and keeps the shared chunks hot in
// cache across machines.

// SimpointSalt returns the seed salt selecting simpoint region i. The
// offset keeps region 0 distinct from a plain non-simpoint run (salt 0):
// salt participates in ConfigKey, and a zero salt for region 0 would
// alias the two in every salt-keyed path (observer tags, batched-run
// grouping, trace filenames).
func SimpointSalt(i int) uint64 { return uint64(i+1) * 7919 }

// batchRunner holds the shared stream and the scheduling state for one
// lockstep group.
type batchRunner struct {
	tape    *workload.Tape         // nil for a trace group
	ms      []*Machine             // nil where construction failed
	readers []*workload.TapeReader // nil when there is no tape
	res     []Result
	errs    []error

	mu      sync.Mutex
	cond    *sync.Cond
	claimed []bool
	done    []bool
	live    int
	stopped error
}

// newBatchRunner builds the K machines, over the tape when there is
// one, and starts their runs. attach (if non-nil) runs per machine
// after construction, before its run starts — the observer hook,
// mirroring RunSimpointsCtx. Construction failures land in errs;
// surviving machines still run.
func newBatchRunner(cfgs []Config, prog *workload.Program, tape *workload.Tape, attach func(k int, m *Machine)) *batchRunner {
	k := len(cfgs)
	b := &batchRunner{
		tape:    tape,
		ms:      make([]*Machine, k),
		readers: make([]*workload.TapeReader, k),
		res:     make([]Result, k),
		errs:    make([]error, k),
		claimed: make([]bool, k),
		done:    make([]bool, k),
	}
	b.cond = sync.NewCond(&b.mu)
	for i, cfg := range cfgs {
		// A nil source makes the machine open its own stream, which
		// for a trace config reads the registered trace directly.
		var src frontend.InstrSource
		if tape != nil {
			b.readers[i] = tape.Reader()
			src = b.readers[i]
		}
		m, err := NewMachineWithSource(cfg, prog, src)
		if err != nil {
			b.errs[i] = err
			b.finish(i)
			continue
		}
		b.ms[i] = m
		b.live++
		if attach != nil {
			attach(i, m)
		}
		m.startRun()
	}
	return b
}

// finish retires machine k from the group, releasing its tape reader.
func (b *batchRunner) finish(k int) {
	b.done[k] = true
	if b.readers[k] != nil {
		b.readers[k].Close()
	}
}

// step advances machine k by one slice and reports whether its run
// completed. The tape is pre-extended past everything the slice can
// consume, so the cycle loop itself allocates nothing — the zero-alloc
// Machine.Step invariant holds in batch mode.
func (b *batchRunner) step(k int) bool {
	m := b.ms[k]
	if b.tape != nil {
		perCycle := uint64(m.cfg.BlocksPerCycle)*isa.InstrPerBlock + 1
		b.tape.EnsureAhead(m.Oracle.Cursor() + runStride*perCycle)
	}
	if !m.advance(runStride) {
		return false
	}
	b.res[k] = m.res
	return true
}

// run drives every live machine to completion with parallelism workers
// (the calling goroutine is one of them). ctx cancellation, polled once
// per slice like the unbatched loop, abandons unfinished machines with
// ctx.Err().
func (b *batchRunner) run(ctx context.Context, parallelism int) {
	if parallelism > b.live {
		parallelism = b.live
	}
	var wg sync.WaitGroup
	for w := 1; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.worker(ctx)
		}()
	}
	b.worker(ctx)
	wg.Wait()
	if b.stopped != nil {
		for i, m := range b.ms {
			if m != nil && !b.done[i] {
				b.errs[i] = b.stopped
				b.finish(i)
			}
		}
	}
}

// worker claims the furthest-behind unclaimed live machine, advances it
// one slice, and repeats until no live machines remain. Machine state is
// only touched while claimed, and claimed/done only under b.mu, so the
// scan is race-free.
func (b *batchRunner) worker(ctx context.Context) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for b.stopped == nil && b.live > 0 {
		k := -1
		var best uint64
		for i, m := range b.ms {
			if b.claimed[i] || b.done[i] {
				continue
			}
			if c := m.Oracle.Cursor(); k < 0 || c < best {
				k, best = i, c
			}
		}
		if k < 0 {
			// Every live machine is claimed by another worker.
			b.cond.Wait()
			continue
		}
		b.claimed[k] = true
		b.mu.Unlock()

		err := ctx.Err()
		completed := err == nil && b.step(k)

		b.mu.Lock()
		b.claimed[k] = false
		if err != nil && b.stopped == nil {
			b.stopped = err
		}
		if completed {
			b.finish(k)
			b.live--
		}
		b.cond.Broadcast()
	}
}

// RunBatch steps K configurations in lockstep over one shared
// architectural stream and returns per-config results. All
// configurations must describe the same workload image and seed salt
// (the stream identity); everything else — mechanism, FTQ geometry,
// cache sizes, warmup/measure lengths — may differ per config. Errors
// are per config: an invalid cell fails alone while the rest of the
// batch runs.
func RunBatch(cfgs []Config, parallelism int) ([]Result, []error) {
	return RunBatchCtx(context.Background(), cfgs, parallelism, nil)
}

// RunBatchCtx is RunBatch with cooperative cancellation and a
// per-machine attach hook (observers, mirroring RunSimpointsCtx's).
func RunBatchCtx(ctx context.Context, cfgs []Config, parallelism int, attach func(k int, m *Machine)) ([]Result, []error) {
	if len(cfgs) == 0 {
		return nil, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	errs := make([]error, len(cfgs))
	fail := func(err error) ([]Result, []error) {
		for i := range errs {
			errs[i] = err
		}
		return make([]Result, len(cfgs)), errs
	}
	sk := SourceKey(cfgs[0])
	for i := 1; i < len(cfgs); i++ {
		if SourceKey(cfgs[i]) != sk {
			return fail(fmt.Errorf("sim: batch mixes workload sources (%q vs %q)",
				cfgs[i].Workload.Name, cfgs[0].Workload.Name))
		}
		if cfgs[i].SeedSalt != cfgs[0].SeedSalt {
			return fail(fmt.Errorf("sim: batch mixes seed salts (%d vs %d)",
				cfgs[i].SeedSalt, cfgs[0].SeedSalt))
		}
	}
	prog, err := workloadImage(cfgs[0])
	if err != nil {
		return fail(err)
	}
	// Only a synthetic group needs a tape: machines over a trace read
	// the decoded records directly.
	var tape *workload.Tape
	if cfgs[0].TraceRef == "" {
		tape = workload.NewTape(prog, cfgs[0].SeedSalt)
	}
	b := newBatchRunner(cfgs, prog, tape, attach)
	b.run(ctx, parallelism)
	return b.res, b.errs
}

// RunBatchSimpoints runs each configuration over n simpoint regions
// (seed salts SimpointSalt(i), matching RunSimpointsCtx) with the
// machines of each region batched in lockstep, and returns the
// per-config aggregate across regions. attach (if non-nil) is invoked
// per (region, config) machine before it runs.
func RunBatchSimpoints(ctx context.Context, cfgs []Config, n, parallelism int, attach func(region, k int, m *Machine)) ([]Result, []error) {
	if n <= 0 {
		n = 1
	}
	k := len(cfgs)
	per := make([][]Result, k)
	errs := make([]error, k)
	rcfgs := make([]Config, k)
	for region := 0; region < n; region++ {
		copy(rcfgs, cfgs)
		for i := range rcfgs {
			if rcfgs[i].TraceRef == "" {
				rcfgs[i].SeedSalt = SimpointSalt(region)
			}
		}
		var at func(int, *Machine)
		if attach != nil {
			r := region
			at = func(i int, m *Machine) { attach(r, i, m) }
		}
		res, rerrs := RunBatchCtx(ctx, rcfgs, parallelism, at)
		for i := 0; i < k; i++ {
			switch {
			case rerrs[i] != nil:
				if errs[i] == nil {
					errs[i] = rerrs[i]
				}
			case errs[i] == nil:
				per[i] = append(per[i], res[i])
			}
		}
	}
	out := make([]Result, k)
	for i := 0; i < k; i++ {
		if errs[i] == nil {
			out[i] = Aggregate(per[i])
		}
	}
	return out, errs
}
