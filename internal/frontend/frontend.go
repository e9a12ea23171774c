package frontend

import (
	"fmt"

	"udpsim/internal/bp"
	"udpsim/internal/btb"
	"udpsim/internal/cache"
	"udpsim/internal/isa"
	"udpsim/internal/memory"
	"udpsim/internal/obs"
	"udpsim/internal/stats"
	"udpsim/internal/workload"
)

// Config parameterizes the decoupled frontend (Table II defaults are
// assembled by the sim package).
type Config struct {
	// FTQPhysMax is the physical FTQ size; FTQDepth the initial logical
	// capacity (the baseline fixes it at 32).
	FTQPhysMax int
	FTQDepth   int
	// BlocksPerCycle is how many fetch blocks the prediction stage can
	// build per cycle (Table II: 2).
	BlocksPerCycle int
	// ScanPerCycle is how many FTQ blocks FDIP examines per cycle.
	ScanPerCycle int
	// L1I is the instruction cache geometry.
	L1I cache.Config
	// MSHRs is the instruction-side miss buffer size (fill buffer).
	MSHRs int
	// FetchWidth is instructions delivered to decode per cycle.
	FetchWidth int
	// DecodeQueueCap bounds the fetch-to-decode buffer.
	DecodeQueueCap int
	// PerfectICache makes every instruction fetch hit (Fig. 1 upper
	// bound).
	PerfectICache bool
	// NoPrefetch disables FDIP (no-prefetch baseline).
	NoPrefetch bool
	// NoFDIPWithExternal disables the FDIP scan when an external
	// prefetcher is attached (stand-alone prefetcher evaluation).
	NoFDIPWithExternal bool
	// PredecodeBTBFill pre-decodes every line installed into the icache
	// and fills the BTB with its branches — the Boomerang/Confluence
	// family of BTB-miss elimination the paper cites as orthogonal to
	// UDP. It removes the BTB-miss-induced wrong paths that post-fetch
	// correction otherwise heals late.
	PredecodeBTBFill bool
	// RASEntries sizes the return address stack.
	RASEntries int
	// InFlightHint is how many instructions may live outside the
	// frontend (the backend's ROB size); it sizes the frontend's
	// preallocated instruction pool so the steady-state cycle loop never
	// allocates. Zero falls back to a generous default.
	InFlightHint int
}

// Stats aggregates the frontend events the paper's figures are built
// from.
type Stats struct {
	BlocksBuilt    uint64
	OffPathBlocks  uint64
	FTQFullCycles  uint64
	FTQEmptyCycles uint64

	// Prefetch accounting (ground-truth path attribution).
	PrefetchesEmitted    uint64
	PrefetchesOnPath     uint64
	PrefetchesOffPath    uint64
	PrefetchesDropped    uint64 // dropped by UDP filtering
	PrefetchesMerged     uint64 // candidate already in flight
	PrefetchBackpressure uint64 // dropped by MSHR/bandwidth pressure (L1I file or shared L2/LLC ports)
	PrefetchUseful       uint64
	PrefetchUsefulOff    uint64
	PrefetchUseless      uint64
	PrefetchUselessOff   uint64
	SuperLinePrefetches  uint64 // extra lines emitted via 2-/4-block hits

	// Demand fetch timeliness (paper Section III-C).
	DemandIcacheHits  uint64
	DemandFillBufHits uint64
	DemandMisses      uint64
	DemandMissRetries uint64 // demand miss rejected under MSHR pressure, retried next cycle
	FetchStallCycles  uint64

	// Divergences and resteers.
	DivergencesDirection uint64
	DivergencesTarget    uint64
	DivergencesBTBMiss   uint64
	DivergencesPostFetch uint64
	Recoveries           uint64
	PostFetchResteers    uint64
	PostFetchRecoveries  uint64 // divergence healed at decode
	PostFetchDiscoveries uint64 // BTB-missed branches found at decode
	PredecodeBTBFills    uint64 // branches installed by predecode BTB fill

	// Oracle progress.
	OnPathInstrsBuilt  uint64
	OffPathInstrsBuilt uint64
}

// Timeliness returns icache_hits/(icache_hits+fillbuffer_hits), the
// paper's timeliness ratio (Fig. 4).
func (s *Stats) Timeliness() float64 {
	d := s.DemandIcacheHits + s.DemandFillBufHits
	if d == 0 {
		return 0
	}
	return float64(s.DemandIcacheHits) / float64(d)
}

// OnPathRatio returns on/(on+off) emitted prefetches (Fig. 5).
func (s *Stats) OnPathRatio() float64 {
	d := s.PrefetchesOnPath + s.PrefetchesOffPath
	if d == 0 {
		return 0
	}
	return float64(s.PrefetchesOnPath) / float64(d)
}

// Usefulness returns useful/(useful+useless) prefetch outcomes (Fig. 6).
func (s *Stats) Usefulness() float64 {
	d := s.PrefetchUseful + s.PrefetchUseless
	if d == 0 {
		return 0
	}
	return float64(s.PrefetchUseful) / float64(d)
}

// ExternalPrefetcher lets a stand-alone instruction prefetcher (the EIP
// baseline) observe demand accesses and inject prefetches; when set, it
// replaces FDIP's FTQ scan.
type ExternalPrefetcher interface {
	// OnDemandAccess observes a demand fetch of line and returns lines
	// to prefetch.
	OnDemandAccess(line isa.Addr, hit bool, cycle uint64) []isa.Addr
	// OnFill observes a line installed into the icache.
	OnFill(line isa.Addr, cycle uint64)
}

// Frontend is the decoupled frontend.
type Frontend struct {
	cfg    Config
	prog   *workload.Program
	oracle *OracleStream
	dir    bp.DirectionPredictor
	btb    *btb.BTB
	ibtb   *btb.IndirectBTB
	ras    *bp.RAS
	icache *cache.Cache
	mshrs  *cache.MSHRFile
	hier   *memory.Hierarchy
	ftq    *FTQ
	tuner  Tuner
	ext    ExternalPrefetcher

	fetchPC    isa.Addr
	onPath     bool
	divergence *Divergence
	divSeq     uint64 // FetchSeq of the diverging instruction
	fetchSeq   uint64
	blockSeq   uint64

	// Fetch stage state: the block currently being read from the L1I
	// and streamed into the decode queue.
	curBlock   *FetchBlock
	curIdx     int
	blockReady uint64
	needAccess bool
	// lastDemandLine dedups timeliness classification across blocks in
	// the same cache line.
	lastDemandLine isa.Addr

	decodeQ instrQueue

	// instrs/blocks are the zero-alloc free lists for the per-cycle
	// objects (see pool.go).
	instrs instrPool
	blocks blockPool

	Stats Stats
	// ResolutionLatency distributes cycles from divergence to recovery
	// (execute-time resolutions only; decode-time heals are cheaper).
	ResolutionLatency *stats.Histogram

	// Obs receives cycle-level observability events when non-nil; every
	// hook is nil-guarded so the disabled path costs one branch.
	Obs *obs.Observer
}

// Deps bundles the structures the frontend drives.
type Deps struct {
	Program  *workload.Program
	Oracle   *OracleStream
	Dir      bp.DirectionPredictor
	BTB      *btb.BTB
	IndirBTB *btb.IndirectBTB
	Hier     *memory.Hierarchy
	Tuner    Tuner
	External ExternalPrefetcher
}

// New wires a frontend.
func New(cfg Config, d Deps) *Frontend {
	if cfg.FTQPhysMax <= 0 {
		cfg.FTQPhysMax = 128
	}
	if cfg.FTQDepth <= 0 {
		cfg.FTQDepth = 32
	}
	if cfg.BlocksPerCycle <= 0 {
		cfg.BlocksPerCycle = 2
	}
	if cfg.ScanPerCycle <= 0 {
		cfg.ScanPerCycle = 2
	}
	if cfg.FetchWidth <= 0 {
		cfg.FetchWidth = 6
	}
	if cfg.DecodeQueueCap <= 0 {
		cfg.DecodeQueueCap = 32
	}
	if cfg.MSHRs <= 0 {
		cfg.MSHRs = 16
	}
	if cfg.RASEntries <= 0 {
		cfg.RASEntries = 32
	}
	tuner := d.Tuner
	if tuner == nil {
		tuner = NopTuner{}
	}
	f := &Frontend{
		cfg:     cfg,
		prog:    d.Program,
		oracle:  d.Oracle,
		dir:     d.Dir,
		btb:     d.BTB,
		ibtb:    d.IndirBTB,
		ras:     bp.NewRAS(cfg.RASEntries),
		icache:  cache.New(cfg.L1I),
		mshrs:   cache.NewMSHRFile(cfg.MSHRs),
		hier:    d.Hier,
		ftq:     NewFTQ(cfg.FTQPhysMax, cfg.FTQDepth),
		tuner:   tuner,
		ext:     d.External,
		fetchPC: d.Program.Entry(),
		onPath:  true,
	}
	f.decodeQ.init(cfg.DecodeQueueCap)
	// Preallocate the pools to the structural in-flight bound: every
	// FTQ slot full of maximal blocks, plus the block being built and
	// the block being streamed, plus the decode queue and the backend's
	// ROB (InFlightHint).
	inFlight := cfg.InFlightHint
	if inFlight <= 0 {
		inFlight = 512
	}
	nBlocks := cfg.FTQPhysMax + 2
	f.blocks = newBlockPool(nBlocks)
	f.instrs = newInstrPool(nBlocks*isa.InstrPerBlock + cfg.DecodeQueueCap + inFlight + cfg.FetchWidth)
	f.ResolutionLatency = stats.NewLog2Histogram(14)
	return f
}

// ResetStats clears every statistic the frontend accumulates — its own
// counters, the icache and fill-buffer stats, the resolution-latency
// histogram, and the FTQ occupancy accumulators — while preserving
// microarchitectural state. It implements the sim package's
// StatsResetter.
func (f *Frontend) ResetStats() {
	f.Stats = Stats{}
	f.icache.Stats = cache.Stats{}
	f.mshrs.Stats = cache.MSHRStats{}
	f.ResolutionLatency.Reset()
	f.ftq.OccupancySum, f.ftq.OccupancySamples = 0, 0
}

// ICache exposes the instruction cache (stats, tests).
func (f *Frontend) ICache() *cache.Cache { return f.icache }

// MSHRs exposes the instruction-side miss file.
func (f *Frontend) MSHRs() *cache.MSHRFile { return f.mshrs }

// FTQ exposes the fetch target queue.
func (f *Frontend) Queue() *FTQ { return f.ftq }

// RAS exposes the return address stack.
func (f *Frontend) RAS() *bp.RAS { return f.ras }

// OnOraclePath reports whether the frontend is currently synchronized
// with the oracle stream (model ground truth).
func (f *Frontend) OnOraclePath() bool { return f.onPath }

// FetchPC returns the prediction stage's current cursor.
func (f *Frontend) FetchPC() isa.Addr { return f.fetchPC }

// Cycle advances the frontend by one cycle: fill completions, block
// building, FDIP scan, and the fetch stage.
func (f *Frontend) Cycle(cycle uint64) {
	f.completeFills(cycle)
	f.buildBlocks(cycle)
	f.fdipScan(cycle)
	f.fetchStage(cycle)
	f.ftq.SampleOccupancy()
	if target := f.tuner.TargetFTQDepth(f.ftq.Cap()); target != f.ftq.Cap() {
		if f.Obs != nil {
			f.Obs.FTQResize(f.ftq.Cap(), target)
		}
		f.ftq.SetCap(target)
	}
}

// buildBlocks runs the prediction stage: up to BlocksPerCycle fetch
// blocks are constructed and pushed into the FTQ.
func (f *Frontend) buildBlocks(cycle uint64) {
	for i := 0; i < f.cfg.BlocksPerCycle; i++ {
		if f.ftq.Full() {
			f.Stats.FTQFullCycles++
			return
		}
		fb := f.buildBlock(cycle)
		f.ftq.Push(fb)
	}
}

// buildBlock walks the static image from the fetch cursor to the next
// predicted-taken branch or fetch-block boundary, consulting BTB and
// predictors exactly as the hardware would, while the oracle comparison
// tracks ground-truth divergence.
func (f *Frontend) buildBlock(cycle uint64) *FetchBlock {
	start := f.fetchPC
	f.blockSeq++
	fb := f.blocks.get()
	fb.StartPC = start
	fb.Seq = f.blockSeq
	fb.OffPath = !f.onPath
	fb.AssumedOffPath = f.tuner.AssumeOffPath()
	if fb.OffPath {
		f.Stats.OffPathBlocks++
	}
	f.Stats.BlocksBuilt++

	blockEnd := start.Block() + isa.FetchBlockBytes
	pc := start
	for pc < blockEnd {
		si := f.prog.InstrAt(pc)
		f.fetchSeq++
		fi := f.instrs.get()
		fi.Static = si
		fi.OnPath = f.onPath
		fi.FetchSeq = f.fetchSeq
		if f.onPath {
			fi.Oracle = f.oracle.Consume()
			fi.OracleCursorAfter = f.oracle.Cursor()
			f.Stats.OnPathInstrsBuilt++
			if fi.Oracle.PC() != pc {
				panic(fmt.Sprintf("frontend: on-path desync at %v (oracle %v)", pc, fi.Oracle.PC()))
			}
		} else {
			f.Stats.OffPathInstrsBuilt++
		}
		fb.Instrs = append(fb.Instrs, fi)

		if si.IsBranch() {
			if next, ended := f.handleBranch(fb, fi, cycle); ended {
				fb.NextPC = next
				f.fetchPC = next
				return fb
			}
		}
		pc += isa.InstrBytes
	}
	// The block ended at its boundary with no predicted-taken branch:
	// give UDP's hidden-branch heuristic a chance to flag a suspected
	// BTB miss.
	f.tuner.OnSequentialBlockEnd(start.Block())
	fb.NextPC = blockEnd
	f.fetchPC = blockEnd
	return fb
}

// handleBranch processes a control-flow instruction during block build.
// It returns (nextPC, true) when the block terminates at a predicted-
// taken branch; (0, false) when the frontend walks on sequentially.
func (f *Frontend) handleBranch(fb *FetchBlock, fi *FrontInstr, cycle uint64) (isa.Addr, bool) {
	si := fi.Static
	pc := si.PC
	entry, hit := f.btb.Lookup(pc, cycle)
	if !hit {
		// The frontend is blind to this branch: it continues
		// sequentially and the branch will surface at decode
		// (post-fetch correction). Record the build-time snapshots the
		// decode-time handling will need. The PredictedBranch lives in
		// the instruction's embedded storage (zero-alloc hot loop).
		fi.branchStorage = PredictedBranch{
			PC:       pc,
			Kind:     si.Branch,
			FromBTB:  false,
			HistSnap: f.dir.Snapshot(),
			RASSnap:  f.ras.Snapshot(),
		}
		fi.Branch = &fi.branchStorage
		if f.onPath && fi.Oracle.Taken {
			// Ground truth: the oracle jumped; the frontend is now on
			// the wrong (sequential) path.
			f.btb.RecordTakenMiss()
			f.diverge(fi, DivBTBMiss, fi.Oracle.Target, fi.Oracle.Taken, fi.Oracle.Target, cycle)
		}
		return 0, false
	}

	fi.branchStorage = PredictedBranch{
		PC:       pc,
		Kind:     entry.Kind,
		FromBTB:  true,
		HistSnap: f.dir.Snapshot(),
		RASSnap:  f.ras.Snapshot(),
	}
	pb := &fi.branchStorage
	fi.Branch = pb

	// Direction.
	taken := true
	if entry.Kind.IsConditional() {
		pred := f.dir.Predict(pc)
		pb.Pred = pred
		pb.HasPred = true
		f.tuner.OnCondPrediction(pred.Conf)
		taken = pred.Taken
		f.dir.SpecUpdate(pc, taken)
	}

	// Target.
	target := entry.Target
	switch {
	case entry.Kind.PopsRAS():
		target = f.ras.Pop()
		if target == 0 {
			target = entry.Target // RAS empty: fall back to BTB target
		}
	case entry.Kind == isa.BranchIndirect || entry.Kind == isa.BranchIndirectCall:
		if t, ok := f.ibtb.Lookup(pc, pb.HistSnap.PathHist); ok {
			target = t
		}
	}
	if entry.Kind.PushesRAS() {
		f.ras.Push(si.FallThrough())
	}
	pb.PredTaken = taken
	pb.PredTarget = target

	// Ground-truth divergence check (on-path only).
	if f.onPath {
		o := fi.Oracle
		switch {
		case o.Taken != taken:
			f.diverge(fi, DivDirection, o.NextPC(), o.Taken, o.Target, cycle)
		case taken && o.Target != target:
			f.diverge(fi, DivTarget, o.Target, o.Taken, o.Target, cycle)
		}
	}

	if taken {
		return target, true
	}
	return 0, false
}

// diverge records that fi is the point where the frontend left the
// oracle path.
func (f *Frontend) diverge(fi *FrontInstr, kind DivKind, recoverPC isa.Addr, actualTaken bool, actualTarget isa.Addr, cycle uint64) {
	// The Divergence lives in the diverging instruction's embedded
	// storage (zero-alloc hot loop); f.divergence is nilled before the
	// instruction can be released (flushYoungerThan, Recover, OnDecode).
	fi.divStorage = Divergence{
		Kind:         kind,
		RecoverPC:    recoverPC,
		OracleCursor: fi.OracleCursorAfter,
		HistSnap:     fi.Branch.HistSnap,
		RASSnap:      fi.Branch.RASSnap,
		ActualTaken:  actualTaken,
		ActualTarget: actualTarget,
		BranchPC:     fi.Static.PC,
		BranchKind:   fi.Static.Branch,
		BornCycle:    cycle,
	}
	div := &fi.divStorage
	fi.Divergence = div
	f.divergence = div
	f.divSeq = fi.FetchSeq
	f.onPath = false
	switch kind {
	case DivDirection:
		f.Stats.DivergencesDirection++
	case DivTarget:
		f.Stats.DivergencesTarget++
	case DivBTBMiss:
		f.Stats.DivergencesBTBMiss++
	case DivPostFetch:
		f.Stats.DivergencesPostFetch++
	}
}

// instrQueue is a simple FIFO of delivered instructions awaiting decode.
type instrQueue struct {
	buf   []*FrontInstr
	head  int
	tail  int
	count int
}

func (q *instrQueue) init(capacity int) { q.buf = make([]*FrontInstr, capacity) }

func (q *instrQueue) full() bool  { return q.count == len(q.buf) }
func (q *instrQueue) empty() bool { return q.count == 0 }
func (q *instrQueue) len() int    { return q.count }

func (q *instrQueue) push(fi *FrontInstr) {
	if q.full() {
		panic("frontend: decode queue overflow")
	}
	q.buf[q.tail] = fi
	q.tail = (q.tail + 1) % len(q.buf)
	q.count++
}

func (q *instrQueue) pop() *FrontInstr {
	if q.count == 0 {
		return nil
	}
	fi := q.buf[q.head]
	q.buf[q.head] = nil
	q.head = (q.head + 1) % len(q.buf)
	q.count--
	return fi
}

func (q *instrQueue) clear() {
	for q.count > 0 {
		q.pop()
	}
}

// DecodeQueueLen reports how many instructions await decode.
func (f *Frontend) DecodeQueueLen() int { return f.decodeQ.len() }

// PopDecode hands the next instruction to the backend's decode stage.
func (f *Frontend) PopDecode() *FrontInstr { return f.decodeQ.pop() }
