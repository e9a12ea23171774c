package sim

import (
	"fmt"
	"math"

	"udpsim/internal/backend"
	"udpsim/internal/frontend"
	"udpsim/internal/memory"
	"udpsim/internal/obs"
)

// Result is the measured outcome of one simulation region.
type Result struct {
	Workload  string
	Mechanism Mechanism
	SeedSalt  uint64
	FTQDepth  int

	Instructions uint64
	Cycles       uint64
	IPC          float64

	// Icache behaviour.
	IcacheMPKI     float64
	IcacheMisses   uint64
	IcacheAccesses uint64

	// Paper metrics.
	Timeliness    float64 // Fig. 4: icache/(icache+fill-buffer) demand hits
	OnPathRatio   float64 // Fig. 5: on/(on+off) emitted prefetches
	Usefulness    float64 // Fig. 6: useful/(useful+useless) prefetches
	MeanFTQOcc    float64 // Fig. 8
	LostInstrs    uint64  // Fig. 15: instructions lost to icache-miss stalls
	LostInstrsPKI float64

	// Prefetch volume.
	PrefetchesEmitted uint64
	PrefetchesOnPath  uint64
	PrefetchesOffPath uint64
	PrefetchesDropped uint64
	PrefetchUseful    uint64
	PrefetchUseless   uint64

	// Control flow.
	Recoveries        uint64
	PostFetchResteers uint64
	BTBHitRate        float64
	BranchMPKI        float64 // mispredictions (recoveries) per kilo-instr
	// Resolution latency distribution (divergence → recovery, cycles).
	ResolutionMean float64
	ResolutionP99  uint64

	// Mechanism detail.
	FinalFTQDepth    int
	UDPStorage       uint
	MechanismSummary string
	FE               frontend.Stats
	BE               backend.Stats
	// Mem is the memory hierarchy's counter snapshot: per-level fill /
	// merge / backpressure accounting plus DRAM channel traffic.
	Mem memory.Stats

	// Lifecycle is the per-prefetch timing digest (emit→fill latency,
	// demand-wait lateness, fill→use residency). Tracked is false when
	// the run had no lifecycle observer attached.
	Lifecycle obs.LifecycleSummary
}

// Snapshot computes a Result from the machine's current statistics.
func (m *Machine) Snapshot() Result {
	fe := m.FE.Stats
	be := m.BE.Stats
	ic := m.FE.ICache().Stats

	r := Result{
		Workload:  m.cfg.Workload.Name,
		Mechanism: m.cfg.Mechanism,
		SeedSalt:  m.cfg.SeedSalt,
		FTQDepth:  m.cfg.FTQDepth,

		Instructions: be.Retired,
		Cycles:       be.Cycles,

		IcacheMisses:   ic.Misses,
		IcacheAccesses: ic.Hits + ic.Misses,

		Timeliness:  fe.Timeliness(),
		OnPathRatio: fe.OnPathRatio(),
		Usefulness:  fe.Usefulness(),
		MeanFTQOcc:  m.FE.Queue().MeanOccupancy(),
		LostInstrs:  fe.FetchStallCycles * uint64(m.cfg.FetchWidth),

		PrefetchesEmitted: fe.PrefetchesEmitted,
		PrefetchesOnPath:  fe.PrefetchesOnPath,
		PrefetchesOffPath: fe.PrefetchesOffPath,
		PrefetchesDropped: fe.PrefetchesDropped,
		PrefetchUseful:    fe.PrefetchUseful,
		PrefetchUseless:   fe.PrefetchUseless,

		Recoveries:        fe.Recoveries,
		PostFetchResteers: fe.PostFetchResteers,
		BTBHitRate:        m.BTB.Stats.HitRate(),
		ResolutionMean:    m.FE.ResolutionLatency.Mean(),
		ResolutionP99:     m.FE.ResolutionLatency.Percentile(0.99),

		FinalFTQDepth: m.FE.Queue().Cap(),
		FE:            fe,
		BE:            be,
		Mem:           m.Hier.Stats,
	}
	if be.Cycles > 0 {
		r.IPC = float64(be.Retired) / float64(be.Cycles)
	}
	if be.Retired > 0 {
		r.IcacheMPKI = float64(ic.Misses) / float64(be.Retired) * 1000
		r.LostInstrsPKI = float64(r.LostInstrs) / float64(be.Retired) * 1000
		r.BranchMPKI = float64(fe.Recoveries) / float64(be.Retired) * 1000
	}
	if u := m.udp; u != nil {
		r.UDPStorage = u.StorageBytes()
		r.MechanismSummary = u.String()
	}
	if q := m.uftq; q != nil {
		r.MechanismSummary = fmt.Sprintf("%s: depth %d (QDAUR %d, QDATR %d), %d windows, %d adjustments, %d re-searches",
			q.Name(), q.Depth(), q.QDAUR(), q.QDATR(), q.Windows, q.Adjustments, q.Researches)
	}
	if m.obs != nil && m.obs.Life != nil {
		r.Lifecycle = m.obs.Life.Summary()
	}
	return r
}

func (r Result) String() string {
	return fmt.Sprintf("%s/%s: IPC %.3f, icache MPKI %.2f, branch MPKI %.2f, lost-instrs PKI %.1f, timeliness %.2f, on-path %.2f, useful %.2f, FTQ %d",
		r.Workload, r.Mechanism, r.IPC, r.IcacheMPKI, r.BranchMPKI, r.LostInstrsPKI,
		r.Timeliness, r.OnPathRatio, r.Usefulness, r.FinalFTQDepth)
}

// Speedup returns (r.IPC / base.IPC − 1) as a fraction.
func (r Result) Speedup(base Result) float64 {
	if base.IPC == 0 {
		return 0
	}
	return r.IPC/base.IPC - 1
}

// RunOne runs one region over the (process-cached) program image and
// returns the result.
func RunOne(cfg Config) (Result, error) {
	prog, err := SharedImage(cfg.Workload)
	if err != nil {
		return Result{}, err
	}
	m, err := NewMachineWithProgram(cfg, prog)
	if err != nil {
		return Result{}, err
	}
	return m.Run(), nil
}

// RunSimpoints runs n regions (seed salts 0..n-1) one after another
// over a shared program image and returns the per-region results plus
// their aggregate.
func RunSimpoints(cfg Config, n int) ([]Result, Result, error) {
	return RunSimpointsObserved(cfg, n, 1, nil)
}

// Aggregate combines per-simpoint results: cycle- and instruction-
// weighted sums with an arithmetic-mean IPC over regions (matching the
// paper's per-application aggregation of simpoints). Mean fields are
// NaN-safe: a degenerate region (Retired == 0, e.g. a failed or empty
// run) contributes its counters but never poisons the averaged ratios
// with NaN.
func Aggregate(rs []Result) Result {
	if len(rs) == 0 {
		return Result{}
	}
	agg := rs[0]
	if len(rs) == 1 {
		agg.IPC = nanSafe(agg.IPC)
		agg.IcacheMPKI = nanSafe(agg.IcacheMPKI)
		agg.LostInstrsPKI = nanSafe(agg.LostInstrsPKI)
		agg.BranchMPKI = nanSafe(agg.BranchMPKI)
		return agg
	}
	var ipcSum, tSum, opSum, uSum, occSum float64
	agg = Result{Workload: rs[0].Workload, Mechanism: rs[0].Mechanism, FTQDepth: rs[0].FTQDepth}
	for _, r := range rs {
		agg.Instructions += r.Instructions
		agg.Cycles += r.Cycles
		agg.IcacheMisses += r.IcacheMisses
		agg.IcacheAccesses += r.IcacheAccesses
		agg.PrefetchesEmitted += r.PrefetchesEmitted
		agg.PrefetchesOnPath += r.PrefetchesOnPath
		agg.PrefetchesOffPath += r.PrefetchesOffPath
		agg.PrefetchesDropped += r.PrefetchesDropped
		agg.PrefetchUseful += r.PrefetchUseful
		agg.PrefetchUseless += r.PrefetchUseless
		agg.Recoveries += r.Recoveries
		agg.PostFetchResteers += r.PostFetchResteers
		agg.LostInstrs += r.LostInstrs
		ipcSum += nanSafe(r.IPC)
		tSum += nanSafe(r.Timeliness)
		opSum += nanSafe(r.OnPathRatio)
		uSum += nanSafe(r.Usefulness)
		occSum += nanSafe(r.MeanFTQOcc)
		agg.FinalFTQDepth += r.FinalFTQDepth
		agg.Lifecycle = agg.Lifecycle.Merge(r.Lifecycle)
	}
	n := float64(len(rs))
	agg.IPC = ipcSum / n
	agg.Timeliness = tSum / n
	agg.OnPathRatio = opSum / n
	agg.Usefulness = uSum / n
	agg.MeanFTQOcc = occSum / n
	agg.FinalFTQDepth /= len(rs)
	if agg.Instructions > 0 {
		agg.IcacheMPKI = float64(agg.IcacheMisses) / float64(agg.Instructions) * 1000
		agg.LostInstrsPKI = float64(agg.LostInstrs) / float64(agg.Instructions) * 1000
		agg.BranchMPKI = float64(agg.Recoveries) / float64(agg.Instructions) * 1000
	}
	return agg
}

// nanSafe maps NaN/±Inf to 0 so aggregated means stay finite when a
// region retired no instructions.
func nanSafe(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// Geomean returns the geometric mean of 1+x over the values, minus 1 —
// the conventional aggregation for speedups.
func Geomean(speedups []float64) float64 {
	if len(speedups) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range speedups {
		s += math.Log(1 + v)
	}
	return math.Exp(s/float64(len(speedups))) - 1
}
