package sim

import (
	"context"
	"errors"
	"runtime"
	"sync"

	"udpsim/internal/obs"
)

// This file wires the observability layer into the sim driver.
// Observability is attached *after* machine construction (AttachObserver)
// rather than through Config, keeping Config — and therefore ConfigKey
// and the experiment result cache — unchanged: an observed run simulates
// the exact same machine as an unobserved one.

// AttachObserver connects an observer to the machine and threads it
// through the frontend and the active mechanism. Passing nil detaches.
// The observer is stamped with the machine's run tags. An observer must
// not be shared between concurrently running machines; fan-in happens
// at the sink layer (obs.MetricsWriter serializes writers).
func (m *Machine) AttachObserver(o *obs.Observer) {
	m.obs = o
	m.FE.Obs = o
	m.Hier.Obs = o
	if m.udp != nil {
		m.udp.Obs = o
	}
	if m.uftq != nil {
		m.uftq.Obs = o
	}
	if o == nil {
		return
	}
	o.Workload = m.cfg.Workload.Name
	o.Mechanism = string(m.cfg.Mechanism)
	o.Salt = m.cfg.SeedSalt
	o.SetNow(m.cycle)
	m.obsRearm()
}

// Observer returns the attached observer (nil when observability is
// disabled).
func (m *Machine) Observer() *obs.Observer { return m.obs }

// obsRearm re-baselines the interval sampler's deltas against the
// machine's current counters (attach time and end of warmup).
func (m *Machine) obsRearm() {
	m.obsLastCycle = m.cycle
	m.obsLastRetired = m.BE.Stats.Retired
	m.obsLastMisses = m.FE.ICache().Stats.Misses
	m.obsLastEmitted = m.FE.Stats.PrefetchesEmitted
	m.obsLastUseful = m.FE.Stats.PrefetchUseful
	m.obsLastUseless = m.FE.Stats.PrefetchUseless
	m.obsLastDRAMQueue = m.Hier.Stats.DRAMQueueCycles
	m.obsLastFillQueue = m.Hier.Stats.FillQueueCycles()
	m.obsLastRetries = m.Hier.Stats.DemandRetries() + m.FE.Stats.DemandMissRetries
	m.obsLastDrops = m.Hier.Stats.PrefetchDrops() + m.FE.Stats.PrefetchBackpressure
}

// obsTick runs once per cycle when an observer is attached: it advances
// the observer's cycle clock and closes interval samples.
func (m *Machine) obsTick() {
	m.obs.SetNow(m.cycle)
	if m.obs.Interval == 0 {
		return
	}
	if m.cycle-m.obsLastCycle >= m.obs.Interval {
		m.obsSample()
	}
}

// obsSample closes the current interval and emits one sample.
func (m *Machine) obsSample() {
	cycles := m.cycle - m.obsLastCycle
	if cycles == 0 {
		return
	}
	retired := m.BE.Stats.Retired
	misses := m.FE.ICache().Stats.Misses
	emitted := m.FE.Stats.PrefetchesEmitted
	useful := m.FE.Stats.PrefetchUseful
	useless := m.FE.Stats.PrefetchUseless
	dramQ := m.Hier.Stats.DRAMQueueCycles
	fillQ := m.Hier.Stats.FillQueueCycles()
	retries := m.Hier.Stats.DemandRetries() + m.FE.Stats.DemandMissRetries
	drops := m.Hier.Stats.PrefetchDrops() + m.FE.Stats.PrefetchBackpressure

	s := obs.IntervalSample{
		Workload:     m.obs.Workload,
		Mechanism:    m.obs.Mechanism,
		Config:       m.obs.Config,
		Salt:         m.obs.Salt,
		Cycle:        m.cycle,
		Retired:      retired - m.obsLastRetired,
		RetiredTotal: retired,
		FTQDepth:     m.FE.Queue().Cap(),
		FTQOcc:       m.FE.Queue().Len(),
		Emitted:      emitted - m.obsLastEmitted,

		DRAMQueueCycles: dramQ - m.obsLastDRAMQueue,
		FillQueueCycles: fillQ - m.obsLastFillQueue,
		DemandRetries:   retries - m.obsLastRetries,
		PrefetchDrops:   drops - m.obsLastDrops,
	}
	s.IPC = float64(s.Retired) / float64(cycles)
	if s.Retired > 0 {
		s.IcacheMPKI = float64(misses-m.obsLastMisses) / float64(s.Retired) * 1000
	}
	du := useful - m.obsLastUseful
	dl := useless - m.obsLastUseless
	if du+dl > 0 {
		s.Accuracy = float64(du) / float64(du+dl)
	}
	m.obs.AddSample(s)

	m.obsLastCycle = m.cycle
	m.obsLastRetired = retired
	m.obsLastMisses = misses
	m.obsLastEmitted = emitted
	m.obsLastUseful = useful
	m.obsLastUseless = useless
	m.obsLastDRAMQueue = dramQ
	m.obsLastFillQueue = fillQ
	m.obsLastRetries = retries
	m.obsLastDrops = drops
}

// obsFlush closes the final partial interval at the end of a measured
// run, so the per-sample retired deltas sum exactly to
// Result.Instructions.
func (m *Machine) obsFlush() {
	if m.obs == nil || m.obs.Interval == 0 {
		return
	}
	m.obsSample()
}

// RunSimpointsObserved runs n regions with up to parallelism of them
// simulated concurrently over one shared (immutable) program image.
// Regions are independent machines seeded per-salt, so the per-region
// results — and therefore the aggregate — are identical at any
// parallelism; results are returned in salt order. parallelism == 1
// runs serially; <= 0 means GOMAXPROCS. attach(region, machine), when
// non-nil, is invoked after each region's machine is built and before
// it runs, giving the caller a place to AttachObserver with per-region
// tracers/lifecycles (observers must not be shared across machines).
func RunSimpointsObserved(cfg Config, n, parallelism int, attach func(region int, m *Machine)) ([]Result, Result, error) {
	return RunSimpointsCtx(context.Background(), cfg, n, parallelism, attach)
}

// RunSimpointsCtx is the fully-featured simpoint runner: parallel
// regions, per-region observer attach, and cooperative cancellation.
// When ctx is canceled the in-flight regions stop within a few
// thousand simulated cycles (see Machine.RunCtx), regions not yet
// started are skipped, and the joined error contains ctx.Err() — so a
// daemon job timeout or client cancellation actually frees the worker
// pool instead of simulating to completion.
func RunSimpointsCtx(ctx context.Context, cfg Config, n, parallelism int, attach func(region int, m *Machine)) ([]Result, Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if n <= 0 {
		n = 1
	}
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	prog, err := workloadImage(cfg)
	if err != nil {
		return nil, Result{}, err
	}
	if parallelism > n {
		parallelism = n
	}
	results := make([]Result, n)
	errs := make([]error, n)
	runRegion := func(i int) {
		if err := ctx.Err(); err != nil {
			errs[i] = err
			return
		}
		c := cfg
		if c.TraceRef == "" {
			// Trace-driven configs replay one recorded region; the
			// salt is part of the trace and must not be re-derived.
			c.SeedSalt = SimpointSalt(i)
		}
		m, err := NewMachineWithProgram(c, prog)
		if err != nil {
			errs[i] = err
			return
		}
		if attach != nil {
			attach(i, m)
		}
		results[i], errs[i] = m.RunCtx(ctx)
	}
	if parallelism <= 1 {
		for i := 0; i < n; i++ {
			runRegion(i)
		}
	} else {
		var wg sync.WaitGroup
		sem := make(chan struct{}, parallelism)
		for i := 0; i < n; i++ {
			wg.Add(1)
			sem <- struct{}{}
			go func(i int) {
				defer wg.Done()
				defer func() { <-sem }()
				runRegion(i)
			}(i)
		}
		wg.Wait()
	}
	if err := errors.Join(errs...); err != nil {
		return nil, Result{}, err
	}
	return results, Aggregate(results), nil
}
