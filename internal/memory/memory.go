// Package memory wires the uncore of the simulated machine as a
// unified request-based hierarchy: the unified L2 and shared LLC each
// sit behind a generalized MSHR/fill-buffer file and a finite-bandwidth
// fill port, a bandwidth-limited DRAM channel serves the bottom, and
// the L1D (owned here, accessed by the backend) follows the same
// request/complete discipline. The instruction side (L1I + its MSHRs)
// lives in the frontend; this package serves its misses through the
// same L2/LLC MSHRs and ports that data demands and every prefetcher
// (FDIP/UDP/EIP via the frontend, the stream prefetcher here) share.
//
// The request path is two-phase:
//
//   - Request time (InstrRequest / DataRequest / the stream
//     prefetcher): the access probes each level; hits return a latency,
//     misses on an in-flight line merge into the existing MSHR
//     (secondary miss), and full misses allocate MSHRs down the
//     hierarchy, scheduling the fill through the DRAM channel and each
//     level's fill port. Requests that find an MSHR file full are
//     rejected: demands retry (the caller stalls), prefetches are
//     dropped — the backpressure UDP's cost model is supposed to be
//     evaluated against.
//   - Completion time (Tick): a line becomes visible in a cache only at
//     its fill-completion cycle. Until then demand accesses merge and
//     wait. Tick drains each level's MSHR file in arrival order.
//
// Fills are writeback-free: the simulator tracks no dirty data, so
// evictions produce no traffic (documented simplification).
package memory

import (
	"fmt"

	"udpsim/internal/cache"
	"udpsim/internal/isa"
	"udpsim/internal/obs"
)

// Level identifies where in the hierarchy an access was satisfied.
type Level uint8

// Hierarchy levels.
const (
	LevelL1 Level = iota
	LevelL2
	LevelLLC
	LevelDRAM
)

func (l Level) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelL2:
		return "L2"
	case LevelLLC:
		return "LLC"
	case LevelDRAM:
		return "DRAM"
	default:
		return fmt.Sprintf("level(%d)", uint8(l))
	}
}

// ReqKind classifies a hierarchy request: who issued it and whether a
// rejection stalls the requester (demand) or discards the request
// (prefetch).
type ReqKind uint8

// Request kinds.
const (
	// ReqInstrDemand is an L1I demand miss (the fetch stage stalls on
	// rejection and retries next cycle).
	ReqInstrDemand ReqKind = iota
	// ReqInstrPrefetch is an FDIP/UDP/EIP instruction prefetch (dropped
	// on rejection).
	ReqInstrPrefetch
	// ReqDataDemand is a backend load/store (retried on rejection).
	ReqDataDemand
	// ReqDataPrefetch is a stream data prefetch (dropped on rejection).
	ReqDataPrefetch
)

// IsPrefetch reports whether a rejection drops the request instead of
// stalling the requester.
func (k ReqKind) IsPrefetch() bool { return k == ReqInstrPrefetch || k == ReqDataPrefetch }

// IsInstr reports whether the request came from the instruction side.
func (k ReqKind) IsInstr() bool { return k == ReqInstrDemand || k == ReqInstrPrefetch }

func (k ReqKind) String() string {
	switch k {
	case ReqInstrDemand:
		return "instr-demand"
	case ReqInstrPrefetch:
		return "instr-prefetch"
	case ReqDataDemand:
		return "data-demand"
	case ReqDataPrefetch:
		return "data-prefetch"
	default:
		return fmt.Sprintf("req(%d)", uint8(k))
	}
}

// Config carries the uncore parameters (Table II defaults live in the
// sim package).
type Config struct {
	L2         cache.Config
	LLC        cache.Config
	L1D        cache.Config
	L2Latency  int // total load-to-use cycles for an L2 hit
	LLCLatency int // total cycles for an LLC hit
	// DRAMLatency is the access latency of the DRAM device itself,
	// added on top of the LLC latency for a full miss.
	DRAMLatency int
	// DRAMBurstCycles is the channel occupancy per 64B line transfer;
	// models DDR4-2400 single-channel bandwidth at 3 GHz.
	DRAMBurstCycles int

	// Per-level MSHR file sizes (secondary misses merge; a full file
	// backpressures demands and drops prefetches). Zero picks the
	// defaults below.
	L1DMSHRs int // default 16
	L2MSHRs  int // default 32
	LLCMSHRs int // default 64

	// Per-level fill-port occupancy in cycles per 64B line: finite fill
	// bandwidth shared by instruction fills, data demands and all
	// prefetchers. Zero picks 1 (one line per cycle).
	L1DFillCycles int
	L2FillCycles  int
	LLCFillCycles int

	// DRAMPrefetchBacklog is the memory-controller prefetch throttle:
	// when the DRAM channel's backlog exceeds this many cycles, new
	// prefetch requests (instruction or data) are dropped instead of
	// queueing behind demands — a deeply queued prefetch arrives too
	// late to be timely and only delays demand fills. Zero picks the
	// default of 64 burst slots (640 cycles at the default burst), a
	// deliberately loose safety valve: tighter thresholds measurably
	// hurt FDIP-style run-ahead, whose queued prefetches still supply
	// MLP even when they complete late. Negative disables throttling.
	DRAMPrefetchBacklog int

	// StreamPrefetcher enables the L1D stream prefetcher.
	StreamPrefetcher bool
	// StreamDistance is how many lines ahead the stream prefetcher runs.
	StreamDistance int
	// StreamStreams is the number of concurrently tracked streams.
	StreamStreams int
}

// LevelStats accounts the request path at one level. The counters obey
// the conservation invariant checked by CheckCounters: after a Drain,
//
//	Fills == FillRequests − Merges − Drops − Retries
//
// i.e. every fill requested at this level was either supplied, merged
// into an already-in-flight fill, or rejected under MSHR pressure.
type LevelStats struct {
	// FillRequests counts requests that missed at this level (the line
	// was absent from the cache) and therefore needed fill data,
	// including those that merged or were rejected.
	FillRequests uint64
	// Merges counts secondary misses absorbed by an in-flight MSHR.
	Merges uint64
	// Drops counts prefetch requests rejected because the MSHR file was
	// full (the prefetch is discarded).
	Drops uint64
	// Retries counts demand requests rejected because the MSHR file was
	// full (the requester stalls and retries; each retry is a new
	// FillRequest).
	Retries uint64
	// Fills counts completed fills installed into this level's cache;
	// PrefetchFills is the prefetch-initiated subset.
	Fills         uint64
	PrefetchFills uint64
	// FillQueueCycles accumulates cycles fills waited for this level's
	// fill port (finite fill bandwidth).
	FillQueueCycles uint64
}

// Stats aggregates uncore events.
type Stats struct {
	InstrFills     uint64
	InstrL2Hits    uint64
	InstrLLCHits   uint64
	InstrDRAMFills uint64
	DataAccesses   uint64
	DataL1Hits     uint64
	DataL2Hits     uint64
	DataLLCHits    uint64
	DataDRAMFills  uint64
	// StreamPrefetches counts stream prefetches accepted into the
	// request path; StreamPrefetchDrops counts those rejected under
	// MSHR/bandwidth pressure.
	StreamPrefetches    uint64
	StreamPrefetchDrops uint64
	// DRAMQueueCycles is the accumulated queueing delay at the DRAM
	// channel; DRAMBursts counts line transfers over it.
	DRAMQueueCycles uint64
	DRAMBursts      uint64
	// DRAMPrefetchDrops counts prefetches the memory controller dropped
	// because the channel backlog exceeded DRAMPrefetchBacklog.
	DRAMPrefetchDrops uint64

	// Per-level request-path accounting.
	L1D LevelStats
	L2  LevelStats
	LLC LevelStats
}

// DemandRetries sums demand rejections across levels — the cycles-level
// backpressure demand traffic saw from a full hierarchy.
func (s *Stats) DemandRetries() uint64 {
	return s.L1D.Retries + s.L2.Retries + s.LLC.Retries
}

// PrefetchDrops sums prefetch rejections across levels.
func (s *Stats) PrefetchDrops() uint64 {
	return s.L1D.Drops + s.L2.Drops + s.LLC.Drops
}

// FillQueueCycles sums fill-port queueing across levels.
func (s *Stats) FillQueueCycles() uint64 {
	return s.L1D.FillQueueCycles + s.L2.FillQueueCycles + s.LLC.FillQueueCycles
}

// fillPort models one level's finite fill bandwidth as a windowed rate
// limiter: at most fillWindow/cycles line installs per aligned
// fillWindow-cycle window. Fills are booked at request time with their
// projected completion cycle, and those cycles arrive out of order (a
// DRAM fill requested first completes long after an LLC hit requested
// next), so a busy-until accumulator like the DRAM channel's would let
// one far-future reservation head-of-line-block every near-term fill.
// The windowed meter enforces the same average bandwidth without
// imposing an ordering the port never sees.
type fillPort struct {
	winStart uint64
	count    uint64
	capacity uint64
	window   uint64
}

// fillWindow is the metering granularity of a fill port in cycles: wide
// enough to absorb bursty arrival at full bandwidth, narrow enough that
// a constrained L2FillCycles/LLCFillCycles sweep visibly delays fill
// visibility.
const fillWindow = 64

func newFillPort(cycles int) fillPort {
	capacity := uint64(fillWindow) / uint64(cycles)
	if capacity == 0 {
		capacity = 1
	}
	return fillPort{capacity: capacity, window: fillWindow}
}

// schedule books a fill whose data is available at t, returning the
// cycle the fill actually completes (and the line becomes installable).
// A fill landing in a saturated window spills into the next window; the
// wait is charged to FillQueueCycles.
func (p *fillPort) schedule(t uint64, ls *LevelStats) uint64 {
	if t >= p.winStart+p.window {
		// t opens a later window (aligned so grants are deterministic
		// regardless of arrival order within the window).
		p.winStart = t - t%p.window
		p.count = 0
	}
	for p.count >= p.capacity {
		next := p.winStart + p.window
		ls.FillQueueCycles += next - t
		t = next
		p.winStart = next
		p.count = 0
	}
	p.count++
	return t
}

// Hierarchy is the uncore model.
type Hierarchy struct {
	cfg  Config
	L2   *cache.Cache
	LLC  *cache.Cache
	L1D  *cache.Cache
	dram dramChannel
	spf  *streamPrefetcher

	l1dm *cache.MSHRFile
	l2m  *cache.MSHRFile
	llcm *cache.MSHRFile

	l1dFill fillPort
	l2Fill  fillPort
	llcFill fillPort

	// prefetchBacklog is the resolved DRAMPrefetchBacklog threshold in
	// cycles (-1 disables).
	prefetchBacklog int64

	Stats Stats

	// Obs receives backpressure and fill-completion events when non-nil
	// (nil-guarded; attached by the sim driver).
	Obs *obs.Observer
}

// New builds the hierarchy.
func New(cfg Config) *Hierarchy {
	if cfg.L1DMSHRs <= 0 {
		cfg.L1DMSHRs = 16
	}
	if cfg.L2MSHRs <= 0 {
		cfg.L2MSHRs = 32
	}
	if cfg.LLCMSHRs <= 0 {
		cfg.LLCMSHRs = 64
	}
	if cfg.L1DFillCycles <= 0 {
		cfg.L1DFillCycles = 1
	}
	if cfg.L2FillCycles <= 0 {
		cfg.L2FillCycles = 1
	}
	if cfg.LLCFillCycles <= 0 {
		cfg.LLCFillCycles = 1
	}
	prefetchBacklog := int64(cfg.DRAMPrefetchBacklog)
	switch {
	case cfg.DRAMPrefetchBacklog == 0:
		prefetchBacklog = 64 * int64(cfg.DRAMBurstCycles)
	case cfg.DRAMPrefetchBacklog < 0:
		prefetchBacklog = -1
	}
	h := &Hierarchy{
		cfg: cfg,
		L2:  cache.New(cfg.L2),
		LLC: cache.New(cfg.LLC),
		L1D: cache.New(cfg.L1D),
		dram: dramChannel{
			latency: uint64(cfg.DRAMLatency),
			burst:   uint64(cfg.DRAMBurstCycles),
		},
		l1dm:    cache.NewMSHRFile(cfg.L1DMSHRs),
		l2m:     cache.NewMSHRFile(cfg.L2MSHRs),
		llcm:    cache.NewMSHRFile(cfg.LLCMSHRs),
		l1dFill: newFillPort(cfg.L1DFillCycles),
		l2Fill:  newFillPort(cfg.L2FillCycles),
		llcFill: newFillPort(cfg.LLCFillCycles),

		prefetchBacklog: prefetchBacklog,
	}
	if cfg.StreamPrefetcher {
		d := cfg.StreamDistance
		if d <= 0 {
			d = 4
		}
		n := cfg.StreamStreams
		if n <= 0 {
			n = 16
		}
		h.spf = newStreamPrefetcher(n, d)
	}
	return h
}

// L1DMSHRFile exposes the L1D miss file (tests, conformance checks).
func (h *Hierarchy) L1DMSHRFile() *cache.MSHRFile { return h.l1dm }

// ResetStats clears the hierarchy's and every level's accumulated
// statistics (end of warmup) while preserving cache contents and
// in-flight fills.
//
// Fills in flight across the reset complete afterwards, so immediately
// after a reset Completions can exceed Allocations in the MSHR files;
// CheckCounters is only meaningful on a hierarchy whose stats were
// never reset mid-flight (use WarmupInstructions=0 in invariant tests).
func (h *Hierarchy) ResetStats() {
	h.Stats = Stats{}
	h.L1D.Stats = cache.Stats{}
	h.L2.Stats = cache.Stats{}
	h.LLC.Stats = cache.Stats{}
	h.l1dm.Stats = cache.MSHRStats{}
	h.l2m.Stats = cache.MSHRStats{}
	h.llcm.Stats = cache.MSHRStats{}
}

// dramChannel models a single DDR channel: fixed device latency plus a
// busy window per burst, so back-to-back misses queue. Instruction
// fills, data demands and every prefetcher share it.
type dramChannel struct {
	latency   uint64
	burst     uint64
	busyUntil uint64
}

// backlog reports how many cycles a burst starting at start would wait
// behind the channel's existing reservations.
func (d *dramChannel) backlog(start uint64) int64 {
	if d.busyUntil <= start {
		return 0
	}
	return int64(d.busyUntil - start)
}

func (d *dramChannel) access(start uint64, s *Stats) uint64 {
	issue := start
	if d.busyUntil > issue {
		s.DRAMQueueCycles += d.busyUntil - issue
		issue = d.busyUntil
	}
	d.busyUntil = issue + d.burst
	s.DRAMBursts++
	return issue + d.latency
}

// streamPrefetcher detects monotonically increasing line streams in the
// L1D miss/access sequence and runs a few lines ahead. Its prefetches
// go through the same request path as demands: they allocate MSHRs,
// occupy fill ports and DRAM bandwidth, and are dropped under pressure.
type streamPrefetcher struct {
	streams  []stream
	distance int
}

type stream struct {
	lastLine isa.Addr
	hits     int
	valid    bool
	lru      uint64
}

func newStreamPrefetcher(n, distance int) *streamPrefetcher {
	return &streamPrefetcher{streams: make([]stream, n), distance: distance}
}

func (p *streamPrefetcher) observe(h *Hierarchy, lineAddr isa.Addr, cycle uint64) {
	// Match an existing stream expecting this line (or a nearby step).
	for i := range p.streams {
		st := &p.streams[i]
		if !st.valid {
			continue
		}
		if lineAddr == st.lastLine+isa.LineBytes || lineAddr == st.lastLine+2*isa.LineBytes {
			st.lastLine = lineAddr
			st.hits++
			st.lru = cycle
			if st.hits >= 2 {
				for k := 1; k <= p.distance; k++ {
					h.prefetchData(lineAddr+isa.Addr(k*isa.LineBytes), cycle)
				}
			}
			return
		}
		if lineAddr == st.lastLine {
			st.lru = cycle
			return
		}
	}
	// Allocate (replace LRU).
	victim := 0
	for i := range p.streams {
		if !p.streams[i].valid {
			victim = i
			break
		}
		if p.streams[i].lru < p.streams[victim].lru {
			victim = i
		}
	}
	p.streams[victim] = stream{lastLine: lineAddr, valid: true, lru: cycle}
}
