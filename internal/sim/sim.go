// Package sim assembles the full machine — synthetic workload,
// TAGE-SC-L, BTB, decoupled frontend with FDIP, out-of-order backend,
// and the cache/memory hierarchy — configured per Table II of the
// paper, and runs cycle-accurate simulations under a selected
// mechanism (baseline FDIP, perfect icache, the UFTQ variants, UDP,
// the EIP comparator, and the no-prefetch lower bound).
package sim

import (
	"context"
	"fmt"

	"udpsim/internal/backend"
	"udpsim/internal/bp"
	"udpsim/internal/btb"
	"udpsim/internal/cache"
	"udpsim/internal/core"
	"udpsim/internal/eip"
	"udpsim/internal/frontend"
	"udpsim/internal/isa"
	"udpsim/internal/memory"
	"udpsim/internal/obs"
	"udpsim/internal/workload"
)

// The Mechanism type, its constants, the mechanism table and the
// switch that builds each mechanism live in mechanisms.go.

// Config is a full simulation configuration. NewConfig supplies the
// paper's Table II values; tests and sweeps override single fields.
type Config struct {
	Workload  workload.Profile
	Mechanism Mechanism

	// SeedSalt selects the simpoint: different salts replay different
	// dynamic phases of the same static image.
	SeedSalt uint64

	// TraceRef, when non-empty, makes this a trace-driven configuration:
	// it is the hex SHA-256 of a UDPT2 trace file whose Source must be
	// registered (workload.RegisterSource) before machines are built.
	// The image and instruction stream then come from the trace instead
	// of the synthetic generator, Workload carries only the display
	// name, and the cache key is derived from the content hash —
	// consistent with the content-addressed result store, so daemon
	// dedup and result storage work unchanged.
	TraceRef string

	// MaxInstructions ends the run after this many retired
	// instructions.
	MaxInstructions uint64
	// WarmupInstructions are simulated first and excluded from stats.
	WarmupInstructions uint64

	// Frontend.
	FTQDepth       int
	FTQPhysMax     int
	BlocksPerCycle int
	ScanPerCycle   int
	FetchWidth     int
	ICacheBytes    int
	ICacheWays     int
	IMSHRs         int

	// Branch prediction.
	Tage            bp.TageConfig
	BTBEntries      int
	BTBWays         int
	IndirectEntries int
	RASEntries      int

	// Backend.
	Width       int
	ROBSize     int
	RSSize      int
	ALUs        int
	LoadPorts   int
	StorePorts  int
	LoadBuffer  int
	StoreBuffer int

	// Uncore.
	L1DBytes        int
	L1DWays         int
	L2Bytes         int
	L2Ways          int
	LLCBytes        int
	LLCWays         int
	L1DLatency      int
	L2Latency       int
	LLCLatency      int
	DRAMLatency     int
	DRAMBurstCycles int
	StreamPF        bool
	// Per-level miss-status holding registers (fill buffers): how many
	// fills may be in flight at each level. Demands rejected by a full
	// file retry; prefetches are dropped (counted as backpressure).
	L1DMSHRs int
	L2MSHRs  int
	LLCMSHRs int
	// Per-level fill-port occupancy in cycles: each fill into the level
	// holds its (single) fill port this long, serializing bursts of
	// fills and charging prefetch traffic a bandwidth cost.
	L1DFillCycles int
	L2FillCycles  int
	LLCFillCycles int
	// DRAMPrefetchBacklog drops prefetch fills whose projected DRAM
	// queueing delay exceeds this many cycles (demands are never
	// throttled). Negative disables the throttle; zero picks the
	// memory package's default. See memory.Config.DRAMPrefetchBacklog.
	DRAMPrefetchBacklog int

	// Mechanism knobs.
	UFTQ core.UFTQConfig
	UDP  core.UDPConfig
	EIP  eip.Config

	// PredecodeBTBFill enables Boomerang/Confluence-style BTB filling
	// from prefetched lines (an orthogonal technique the paper cites;
	// composes with any mechanism).
	PredecodeBTBFill bool
}

// NewConfig returns the Table II configuration for a workload under a
// mechanism. The empty mechanism is normalized to MechBaseline so the
// two spellings share one result-cache key.
func NewConfig(w workload.Profile, m Mechanism) Config {
	return Config{
		Workload:  w,
		Mechanism: NormalizeMechanism(m),

		MaxInstructions:    2_000_000,
		WarmupInstructions: 200_000,

		FTQDepth:       32,
		FTQPhysMax:     128,
		BlocksPerCycle: 2,
		ScanPerCycle:   2,
		FetchWidth:     6,
		ICacheBytes:    32 * 1024,
		ICacheWays:     8,
		IMSHRs:         16,

		Tage:            bp.DefaultTageConfig(),
		BTBEntries:      8192,
		BTBWays:         8,
		IndirectEntries: 2048,
		RASEntries:      32,

		Width:       6,
		ROBSize:     352,
		RSSize:      125,
		ALUs:        4,
		LoadPorts:   2,
		StorePorts:  2,
		LoadBuffer:  64,
		StoreBuffer: 64,

		L1DBytes:        48 * 1024,
		L1DWays:         12,
		L2Bytes:         512 * 1024,
		L2Ways:          8,
		LLCBytes:        2 * 1024 * 1024,
		LLCWays:         16,
		L1DLatency:      4,
		L2Latency:       13,
		LLCLatency:      36,
		DRAMLatency:     150,
		DRAMBurstCycles: 10,
		StreamPF:        true,
		L1DMSHRs:        16,
		L2MSHRs:         32,
		LLCMSHRs:        64,
		L1DFillCycles:   1,
		L2FillCycles:    1,
		LLCFillCycles:   1,
		// Defer to the memory package's default throttle policy.
		DRAMPrefetchBacklog: 0,

		UFTQ: core.DefaultUFTQConfig(core.UFTQATRAUR),
		UDP:  core.DefaultUDPConfig(),
		EIP:  eip.DefaultConfig(),
	}
}

// Machine is one assembled simulated core.
type Machine struct {
	cfg  Config
	prog *workload.Program

	Dir    *bp.Tage
	BTB    *btb.BTB
	IBTB   *btb.IndirectBTB
	Hier   *memory.Hierarchy
	FE     *frontend.Frontend
	BE     *backend.Backend
	Oracle *frontend.OracleStream

	// The active mechanism's state: at most one is non-nil (see
	// buildMechanism).
	udp  *core.UDP
	uftq *core.UFTQ
	eip  *eip.EIP

	cycle uint64

	// Run state (see advance): the current phase, the retired count
	// that ends it, its forward-progress cycle bound, the observer
	// interval suppressed during warmup, and the finished run's result.
	phase   runPhase
	target  uint64
	limit   uint64
	savedIv uint64
	res     Result

	// Observability (attached post-construction via AttachObserver so
	// Config — and the result-cache key — stays unchanged). The
	// obsLast* fields are the interval sampler's delta baselines.
	obs              *obs.Observer
	obsLastCycle     uint64
	obsLastRetired   uint64
	obsLastMisses    uint64
	obsLastEmitted   uint64
	obsLastUseful    uint64
	obsLastUseless   uint64
	obsLastDRAMQueue uint64
	obsLastFillQueue uint64
	obsLastRetries   uint64
	obsLastDrops     uint64

	// phaseHook, when set, is called once per run-phase transition with
	// "warmup", "measure" and "done" — O(1) per run, never per cycle, so
	// the zero-alloc cycle-loop gate is unaffected. The service layer
	// uses it to put warmup/measure spans on the daemon's job timeline.
	phaseHook func(phase string)
}

// SetPhaseHook installs (or clears, with nil) the run-phase callback.
// Like AttachObserver it is post-construction state and not part of
// Config, so it never perturbs result-cache keys.
func (m *Machine) SetPhaseHook(hook func(phase string)) { m.phaseHook = hook }

// notePhase fires the phase hook if one is installed.
func (m *Machine) notePhase(phase string) {
	if m.phaseHook != nil {
		m.phaseHook(phase)
	}
}

// NewMachine builds and wires a machine. The program image is generated
// from cfg.Workload (use NewMachineWithProgram to share an image across
// runs — generation of the multi-MB images is the expensive part).
func NewMachine(cfg Config) (*Machine, error) {
	if cfg.TraceRef != "" {
		prog, err := workloadImage(cfg)
		if err != nil {
			return nil, err
		}
		return NewMachineWithProgram(cfg, prog)
	}
	prog, err := workload.Generate(cfg.Workload)
	if err != nil {
		return nil, err
	}
	return NewMachineWithProgram(cfg, prog)
}

// NewMachineWithProgram wires a machine over an already-generated
// program image, executing the workload live.
func NewMachineWithProgram(cfg Config, prog *workload.Program) (*Machine, error) {
	return NewMachineWithSource(cfg, prog, nil)
}

// NewMachineWithSource wires a machine over a program image with a
// custom architectural instruction source (e.g. a trace replayer); a
// nil source runs the live executor with cfg.SeedSalt.
func NewMachineWithSource(cfg Config, prog *workload.Program, src frontend.InstrSource) (*Machine, error) {
	cfg.Mechanism = NormalizeMechanism(cfg.Mechanism)
	if cfg.MaxInstructions == 0 {
		cfg.MaxInstructions = 1_000_000 // Run's default measured region
	}
	if err := validateGeometry(cfg); err != nil {
		return nil, err
	}
	m := &Machine{cfg: cfg, prog: prog}
	feCfg := frontend.Config{
		FTQPhysMax:     cfg.FTQPhysMax,
		FTQDepth:       cfg.FTQDepth,
		BlocksPerCycle: cfg.BlocksPerCycle,
		ScanPerCycle:   cfg.ScanPerCycle,
		FetchWidth:     cfg.FetchWidth,
		MSHRs:          cfg.IMSHRs,
		RASEntries:     cfg.RASEntries,
		L1I: cache.Config{
			Name: "L1I", SizeBytes: cfg.ICacheBytes, Ways: cfg.ICacheWays,
			Policy: cache.LRU, HitLatency: 3,
		},
		PredecodeBTBFill: cfg.PredecodeBTBFill,
		InFlightHint:     cfg.ROBSize,
	}
	tuner, ext, err := m.buildMechanism(&feCfg)
	if err != nil {
		return nil, err
	}

	m.Dir = bp.NewTage(cfg.Tage)
	m.BTB = btb.New(btb.Config{Entries: cfg.BTBEntries, Ways: cfg.BTBWays})
	m.IBTB = btb.NewIndirect(cfg.IndirectEntries)

	m.Hier = memory.New(memory.Config{
		L1D: cache.Config{
			Name: "L1D", SizeBytes: cfg.L1DBytes, Ways: cfg.L1DWays,
			Policy: cache.LRU, HitLatency: cfg.L1DLatency,
		},
		L2: cache.Config{
			Name: "L2", SizeBytes: cfg.L2Bytes, Ways: cfg.L2Ways, Policy: cache.LRU,
		},
		LLC: cache.Config{
			Name: "LLC", SizeBytes: cfg.LLCBytes, Ways: cfg.LLCWays, Policy: cache.LRU,
		},
		L2Latency:        cfg.L2Latency,
		LLCLatency:       cfg.LLCLatency,
		DRAMLatency:      cfg.DRAMLatency,
		DRAMBurstCycles:  cfg.DRAMBurstCycles,
		StreamPrefetcher: cfg.StreamPF,
		L1DMSHRs:         cfg.L1DMSHRs,
		L2MSHRs:          cfg.L2MSHRs,
		LLCMSHRs:         cfg.LLCMSHRs,
		L1DFillCycles:    cfg.L1DFillCycles,
		L2FillCycles:     cfg.L2FillCycles,
		LLCFillCycles:    cfg.LLCFillCycles,

		DRAMPrefetchBacklog: cfg.DRAMPrefetchBacklog,
	})

	if src == nil {
		if cfg.TraceRef != "" {
			s, ok := workload.SourceByKey("trace:" + cfg.TraceRef)
			if !ok {
				return nil, fmt.Errorf("sim: trace %s not registered (load it with experiments.ResolveTraces or FlagTraces)", cfg.TraceRef)
			}
			stream, err := s.Stream(cfg.SeedSalt)
			if err != nil {
				return nil, err
			}
			src = stream
		} else {
			src = workload.NewExecutor(prog, cfg.SeedSalt)
		}
	}
	m.Oracle = frontend.NewOracleStream(src)

	m.FE = frontend.New(feCfg, frontend.Deps{
		Program:  prog,
		Oracle:   m.Oracle,
		Dir:      m.Dir,
		BTB:      m.BTB,
		IndirBTB: m.IBTB,
		Hier:     m.Hier,
		Tuner:    tuner,
		External: ext,
	})
	m.BE = backend.New(backend.Config{
		Width:       cfg.Width,
		ROBSize:     cfg.ROBSize,
		RSSize:      cfg.RSSize,
		ALUs:        cfg.ALUs,
		LoadPorts:   cfg.LoadPorts,
		StorePorts:  cfg.StorePorts,
		LoadBuffer:  cfg.LoadBuffer,
		StoreBuffer: cfg.StoreBuffer,
	}, m.FE, m.Hier)
	return m, nil
}

// UDP returns the active UDP instance (nil unless a UDP-family
// mechanism is selected).
func (m *Machine) UDP() *core.UDP { return m.udp }

// UFTQ returns the active UFTQ controller (nil unless a UFTQ-family
// mechanism is selected).
func (m *Machine) UFTQ() *core.UFTQ { return m.uftq }

// EIP returns the active EIP comparator (nil unless mechanism "eip").
func (m *Machine) EIP() *eip.EIP { return m.eip }

// validateGeometry checks every cache geometry in the configuration up
// front and returns an error instead of letting the cache constructors
// panic deep inside memory.New/frontend.New. Sweeps over icache (and
// other) sizes hit this with non-power-of-two set counts: e.g. 48 KiB
// at the default 8 ways implies 96 sets, which is not indexable.
func validateGeometry(cfg Config) error {
	caches := []cache.Config{
		{Name: "L1I", SizeBytes: cfg.ICacheBytes, Ways: cfg.ICacheWays},
		{Name: "L1D", SizeBytes: cfg.L1DBytes, Ways: cfg.L1DWays},
		{Name: "L2", SizeBytes: cfg.L2Bytes, Ways: cfg.L2Ways},
		{Name: "LLC", SizeBytes: cfg.LLCBytes, Ways: cfg.LLCWays},
	}
	for _, c := range caches {
		if err := c.Validate(); err != nil {
			return fmt.Errorf("sim: invalid %s geometry (size %d, ways %d): %w; pick ways so size/(ways*%d) is a power of two (see sim.AutoWays)",
				c.Name, c.SizeBytes, c.Ways, err, isa.LineBytes)
		}
	}
	for _, k := range []struct {
		name string
		v    int
	}{
		{"IMSHRs", cfg.IMSHRs},
		{"L1DMSHRs", cfg.L1DMSHRs},
		{"L2MSHRs", cfg.L2MSHRs},
		{"LLCMSHRs", cfg.LLCMSHRs},
		{"L1DFillCycles", cfg.L1DFillCycles},
		{"L2FillCycles", cfg.L2FillCycles},
		{"LLCFillCycles", cfg.LLCFillCycles},
	} {
		if k.v < 0 {
			return fmt.Errorf("sim: %s must be >= 0 (0 selects the default), got %d", k.name, k.v)
		}
	}
	return nil
}

// AutoWays picks an associativity for a cache of sizeBytes such that
// the implied set count (sizeBytes / (ways * line)) is a power of two,
// preferring the smallest valid ways ≥ 8 (the Table II icache
// associativity class). For power-of-two sizes this returns 8; for
// 40 KiB it returns 10, for 48 KiB it returns 12, etc. Returns 0 when
// sizeBytes is not a positive multiple of the line size (no valid
// geometry exists).
func AutoWays(sizeBytes int) int {
	if sizeBytes <= 0 || sizeBytes%isa.LineBytes != 0 {
		return 0
	}
	lines := sizeBytes / isa.LineBytes
	// ways must be odd(lines) * 2^j so that sets = lines/ways is a
	// power of two.
	odd := lines
	for odd%2 == 0 {
		odd /= 2
	}
	ways := odd
	for ways < 8 && ways*2 <= lines {
		ways *= 2
	}
	return ways
}

// Program returns the machine's static image.
func (m *Machine) Program() *workload.Program { return m.prog }

// Cycle returns the current simulated cycle.
func (m *Machine) Cycle() uint64 { return m.cycle }

// Step advances the machine one cycle. The hierarchy ticks first so
// fills whose data arrives this cycle become visible before the
// frontend and backend look for them.
func (m *Machine) Step() {
	m.cycle++
	m.Hier.Tick(m.cycle)
	m.FE.Cycle(m.cycle)
	m.BE.Cycle(m.cycle)
	if m.obs != nil {
		m.obsTick()
	}
}

// Run simulates until MaxInstructions retire (after warmup) and
// returns the result. A zero MaxInstructions runs 1M instructions.
func (m *Machine) Run() Result {
	r, err := m.RunCtx(nil)
	if err != nil {
		// Unreachable: a nil context never cancels.
		panic(err)
	}
	return r
}

// RunCtx is Run with cooperative cancellation: ctx is polled before
// every stride of runStride cycles, and its error is returned as soon
// as it is observed, discarding the partial region. A nil context never
// cancels. The poll sits outside the cycle loop, so it cannot change
// what is simulated: every source — live executor or trace — stops the
// same way.
func (m *Machine) RunCtx(ctx context.Context) (Result, error) {
	m.startRun()
	for {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return Result{}, err
			}
		}
		if m.advance(runStride) {
			return m.res, nil
		}
	}
}

// runStride is how many cycles a run advances between context polls,
// and per scheduling slice in a lockstep batch: frequent enough that
// cancellation latency is a few milliseconds of wall time, rare enough
// that the poll and the batch scheduler's scan are invisible in
// BenchmarkMachineStep-scale profiles.
const runStride = 4096

// runPhase is where a machine stands in its run.
type runPhase uint8

const (
	phaseWarmup runPhase = iota
	phaseMeasure
	phaseDone
)

// startRun arms a run: the warmup region when WarmupInstructions is
// non-zero, else the measured region directly.
func (m *Machine) startRun() {
	if w := m.cfg.WarmupInstructions; w > 0 {
		// Suppress interval samples during warmup so a streaming metrics
		// sink sees only measured-region rows (their retired deltas must
		// sum to Result.Instructions).
		if m.obs != nil {
			m.savedIv, m.obs.Interval = m.obs.Interval, 0
		}
		m.enterPhase(phaseWarmup, w, "warmup")
		return
	}
	m.enterPhase(phaseMeasure, m.cfg.MaxInstructions, "measure")
}

// enterPhase starts a phase that ends after n more retired instructions.
func (m *Machine) enterPhase(p runPhase, n uint64, name string) {
	m.phase = p
	m.arm(n)
	m.notePhase(name)
}

// advance steps the run by up to stride cycles, stopping early when it
// completes, and reports whether it is done. It is the only place a run
// changes phase: warmup → measure resets the statistics and restores
// the observer interval; measure → done flushes the observer and takes
// the Snapshot that RunCtx (or a lockstep batch) returns.
func (m *Machine) advance(stride int) bool {
	for i := 0; i < stride && m.phase != phaseDone; i++ {
		m.stepChecked()
		if m.BE.Stats.Retired < m.target {
			continue
		}
		if m.phase == phaseWarmup {
			m.ResetStats()
			if m.obs != nil {
				m.obs.Interval = m.savedIv
			}
			m.enterPhase(phaseMeasure, m.cfg.MaxInstructions, "measure")
			continue
		}
		m.obsFlush()
		m.res = m.Snapshot()
		m.phase = phaseDone
		m.notePhase("done")
	}
	return m.phase == phaseDone
}

// arm sets the retire target for the next n instructions and its
// forward-progress bound: 400 cycles/instruction guards against
// modelling deadlock.
func (m *Machine) arm(n uint64) {
	m.target = m.BE.Stats.Retired + n
	m.limit = m.cycle + n*400 + 1_000_000
}

// stepChecked is Step plus the forward-progress check.
func (m *Machine) stepChecked() {
	m.Step()
	if m.cycle > m.limit {
		panic(fmt.Sprintf("sim: no forward progress (retired %d of target %d at cycle %d)",
			m.BE.Stats.Retired, m.target, m.cycle))
	}
}

// RunInstructions advances until n more instructions retire, outside
// any run phase (no warmup, no snapshot).
func (m *Machine) RunInstructions(n uint64) {
	m.arm(n)
	for m.BE.Stats.Retired < m.target {
		m.stepChecked()
	}
}

// ResetStats clears all accumulated statistics (end of warmup) while
// preserving microarchitectural state (caches, predictors, learned
// sets): the frontend, backend, memory hierarchy and BTB. Mechanism
// counters span warmup and are left alone.
func (m *Machine) ResetStats() {
	m.FE.ResetStats()
	m.BE.ResetStats()
	m.Hier.ResetStats()
	m.BTB.ResetStats()
	if m.obs != nil {
		if m.obs.Life != nil {
			m.obs.Life.Reset()
		}
		m.obsRearm()
	}
}
