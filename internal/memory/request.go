package memory

// This file is the unified request/complete path of the hierarchy. All
// traffic — L1I instruction fills (demand and FDIP/UDP/EIP prefetch),
// backend data demands, and stream data prefetches — walks the same
// L2 → LLC → DRAM pipeline, competing for the same MSHR files, fill
// ports and DRAM channel.

import (
	"fmt"

	"udpsim/internal/cache"
	"udpsim/internal/isa"
)

// InstrRequest issues an instruction-line fill on behalf of the L1I.
// ready is the cycle the line arrives at the L1I's fill buffer; level
// is the supplier (a level whose fill buffer absorbed the request
// reports that level). ok=false means the request was rejected under
// MSHR pressure: a demand must retry next cycle, a prefetch is dropped
// (both already counted in Stats).
//
// The caller owns the L1I and its MSHR file; it must have a free L1I
// MSHR before calling (the frontend checks Full() first) and installs
// the line into the L1I at its own completion sweep.
func (h *Hierarchy) InstrRequest(lineAddr isa.Addr, cycle uint64, prefetch bool) (ready uint64, level Level, ok bool) {
	kind := ReqInstrDemand
	if prefetch {
		kind = ReqInstrPrefetch
	}
	ready, level, ok = h.request(lineAddr, cycle, kind)
	if !ok {
		return 0, level, false
	}
	h.Stats.InstrFills++
	switch level {
	case LevelL2:
		h.Stats.InstrL2Hits++
	case LevelLLC:
		h.Stats.InstrLLCHits++
	default:
		h.Stats.InstrDRAMFills++
	}
	return ready, level, true
}

// DataRequest serves a demand load or store from the backend, returning
// the load-to-use latency in cycles. ok=false means the access was
// rejected under MSHR pressure and must be retried next cycle (already
// counted); level LevelL1 on a rejection means the L1D MSHR file was
// full (see DataEpoch). Stores share the lookup path (write-allocate)
// but the backend retires them without waiting.
func (h *Hierarchy) DataRequest(addr isa.Addr, cycle uint64) (latency uint64, level Level, ok bool) {
	lineAddr := addr.Line()
	hitLat := uint64(h.cfg.L1D.HitLatency)
	if h.L1D.Access(lineAddr, cycle).Hit {
		h.Stats.DataAccesses++
		h.Stats.DataL1Hits++
		h.observeStream(lineAddr, cycle)
		return hitLat, LevelL1, true
	}
	if m := h.l1dm.Lookup(lineAddr); m != nil {
		// Fill-buffer hit: the line is in flight to the L1D; pay the
		// remainder (at least a hit's latency).
		h.Stats.DataAccesses++
		h.Stats.L1D.FillRequests++
		h.Stats.L1D.Merges++
		ready := h.l1dm.MergeDemand(m)
		lat := hitLat
		if ready > cycle && ready-cycle > lat {
			lat = ready - cycle
		}
		h.observeStream(lineAddr, cycle)
		return lat, LevelL1, true
	}
	h.Stats.L1D.FillRequests++
	if h.l1dm.Full() {
		h.rejectL1DDemand(lineAddr)
		return 0, LevelL1, false
	}
	ready, level, ok := h.request(lineAddr, cycle, ReqDataDemand)
	if !ok {
		// Rejected downstream: the whole access retries, so this level's
		// fill request resolves as a retry too (conservation invariant).
		h.Stats.L1D.Retries++
		return 0, level, false
	}
	install := h.l1dFill.schedule(ready, &h.Stats.L1D)
	h.l1dm.Allocate(lineAddr, cycle, install, false, false)
	h.Stats.DataAccesses++
	switch level {
	case LevelL2:
		h.Stats.DataL2Hits++
	case LevelLLC:
		h.Stats.DataLLCHits++
	default:
		h.Stats.DataDRAMFills++
	}
	h.observeStream(lineAddr, cycle)
	// Data is forwarded to the core as it arrives (ready); the line
	// becomes visible in the L1D at its fill completion (install).
	return ready - cycle, level, true
}

// DataEpoch returns a value that changes whenever the L1D installs,
// invalidates or flushes a line, or the L1D MSHR file allocates,
// completes or flushes an entry. While it is unchanged, a line that
// DataRequest rejected at LevelL1 is still absent from the L1D and from
// the MSHR file, and the file is still full: a retry would be rejected
// again, for the same reason, and RejectAgain can answer it. Both
// versions only ever grow, so their sum changes whenever either does.
func (h *Hierarchy) DataEpoch() uint64 { return h.L1D.Version() + h.l1dm.Version() }

// RejectAgain answers the retry of a data demand that DataRequest
// rejected at LevelL1 while DataEpoch has not changed since. It counts
// exactly what DataRequest's probe would have counted on that retry: an
// L1D miss, an L1D FillRequest and Retry, an L1D MSHR AllocFailure and
// a backpressure event.
func (h *Hierarchy) RejectAgain(addr isa.Addr) {
	h.L1D.Stats.Misses++
	h.Stats.L1D.FillRequests++
	h.rejectL1DDemand(addr.Line())
}

// RejectAgainN counts n RejectAgain answers at once: it adds n to the
// four counters RejectAgain bumps. It emits no backpressure events,
// which need each retry's address, so it is for callers with no
// observer attached.
func (h *Hierarchy) RejectAgainN(n uint64) {
	h.L1D.Stats.Misses += n
	h.Stats.L1D.FillRequests += n
	h.Stats.L1D.Retries += n
	h.l1dm.Stats.AllocFailures += n
}

// rejectL1DDemand records a data demand rejected because the L1D MSHR
// file is full.
func (h *Hierarchy) rejectL1DDemand(lineAddr isa.Addr) {
	h.Stats.L1D.Retries++
	h.l1dm.Stats.AllocFailures++
	h.memBackpressure(LevelL1, lineAddr, false)
}

// observeStream feeds the stream prefetcher after the demand itself has
// been served, so its prefetches never steal the demand's MSHR.
func (h *Hierarchy) observeStream(lineAddr isa.Addr, cycle uint64) {
	if h.spf != nil {
		h.spf.observe(h, lineAddr, cycle)
	}
}

// prefetchData issues a stream prefetch through the request path: it
// competes for the same MSHRs, fill ports and DRAM bandwidth as
// demands, and is dropped (counted) under pressure.
func (h *Hierarchy) prefetchData(lineAddr isa.Addr, cycle uint64) {
	if h.L1D.Lookup(lineAddr) || h.l1dm.Lookup(lineAddr) != nil {
		return
	}
	h.Stats.L1D.FillRequests++
	if h.l1dm.Full() {
		h.Stats.L1D.Drops++
		h.l1dm.Stats.AllocFailures++
		h.Stats.StreamPrefetchDrops++
		h.memBackpressure(LevelL1, lineAddr, true)
		return
	}
	ready, _, ok := h.request(lineAddr, cycle, ReqDataPrefetch)
	if !ok {
		h.Stats.L1D.Drops++
		h.Stats.StreamPrefetchDrops++
		return
	}
	install := h.l1dFill.schedule(ready, &h.Stats.L1D)
	h.l1dm.Allocate(lineAddr, cycle, install, true, false)
	h.Stats.StreamPrefetches++
}

// request walks the shared L2 → LLC → DRAM path for one line. ready is
// the cycle the line's data leaves the L2 toward the requester (the
// L1-side fill may add its own port delay on top). No state is mutated
// on a rejected request beyond the rejection counters, so callers can
// retry the identical request later.
func (h *Hierarchy) request(lineAddr isa.Addr, cycle uint64, kind ReqKind) (ready uint64, level Level, ok bool) {
	prefetch := kind.IsPrefetch()
	if h.L2.Access(lineAddr, cycle).Hit {
		return cycle + uint64(h.cfg.L2Latency), LevelL2, true
	}
	h.Stats.L2.FillRequests++
	if m := h.l2m.Lookup(lineAddr); m != nil {
		// Secondary miss: merge into the in-flight fill. The data is
		// readable one L2 access after it lands in the L2.
		h.Stats.L2.Merges++
		if prefetch {
			h.l2m.Stats.PrefetchMerges++
		} else {
			h.l2m.MergeDemand(m)
		}
		ready = m.ReadyCycle
		if cycle > ready {
			ready = cycle
		}
		return ready + uint64(h.cfg.L2Latency), LevelL2, true
	}
	if h.l2m.Full() {
		h.rejectAt(&h.Stats.L2, h.l2m, LevelL2, lineAddr, prefetch)
		return 0, LevelL2, false
	}

	// The L2 has an MSHR for us; find the data below.
	var dataAtL2 uint64
	switch {
	case h.LLC.Access(lineAddr, cycle).Hit:
		level = LevelLLC
		dataAtL2 = h.l2Fill.schedule(cycle+uint64(h.cfg.LLCLatency), &h.Stats.L2)
	default:
		h.Stats.LLC.FillRequests++
		if m := h.llcm.Lookup(lineAddr); m != nil {
			// Secondary miss at the LLC: ride the in-flight DRAM fill.
			h.Stats.LLC.Merges++
			if prefetch {
				h.llcm.Stats.PrefetchMerges++
			} else {
				h.llcm.MergeDemand(m)
			}
			level = LevelLLC
			base := cycle + uint64(h.cfg.LLCLatency)
			if m.ReadyCycle > base {
				base = m.ReadyCycle
			}
			dataAtL2 = h.l2Fill.schedule(base, &h.Stats.L2)
		} else {
			if h.llcm.Full() {
				h.rejectAt(&h.Stats.LLC, h.llcm, LevelLLC, lineAddr, prefetch)
				// The L2-side fill request resolves the same way.
				if prefetch {
					h.Stats.L2.Drops++
				} else {
					h.Stats.L2.Retries++
				}
				return 0, LevelLLC, false
			}
			arrival := cycle + uint64(h.cfg.LLCLatency)
			if prefetch && h.prefetchBacklog >= 0 && h.dram.backlog(arrival) > h.prefetchBacklog {
				// Memory-controller prefetch throttling: a prefetch that
				// would queue behind a deep DRAM backlog is dropped rather
				// than delaying demands further (it would arrive too late
				// to be timely anyway).
				h.Stats.DRAMPrefetchDrops++
				h.Stats.LLC.Drops++
				h.Stats.L2.Drops++
				h.memBackpressure(LevelDRAM, lineAddr, true)
				return 0, LevelDRAM, false
			}
			level = LevelDRAM
			dramDone := h.dram.access(arrival, &h.Stats)
			dataAtLLC := h.llcFill.schedule(dramDone, &h.Stats.LLC)
			h.llcm.Allocate(lineAddr, cycle, dataAtLLC, prefetch, false)
			dataAtL2 = h.l2Fill.schedule(dataAtLLC, &h.Stats.L2)
		}
	}
	h.l2m.Allocate(lineAddr, cycle, dataAtL2, prefetch, false)
	return dataAtL2, level, true
}

// rejectAt records an MSHR-full rejection at one level.
func (h *Hierarchy) rejectAt(ls *LevelStats, f *cache.MSHRFile, level Level, lineAddr isa.Addr, prefetch bool) {
	if prefetch {
		ls.Drops++
	} else {
		ls.Retries++
	}
	f.Stats.AllocFailures++
	h.memBackpressure(level, lineAddr, prefetch)
}

// memBackpressure emits the observability event for a rejected request.
func (h *Hierarchy) memBackpressure(level Level, lineAddr isa.Addr, prefetch bool) {
	if h.Obs != nil {
		h.Obs.MemBackpressure(uint64(level), uint64(lineAddr), prefetch)
	}
}

// Tick completes fills whose data has arrived by cycle: lines become
// visible in the LLC, L2 and L1D only now. The sim driver calls it once
// per machine cycle before the frontend and backend run; it is
// idempotent within a cycle. LLC completes before L2 before L1D so a
// multi-level fill chain lands coherently when their cycles coincide.
func (h *Hierarchy) Tick(cycle uint64) {
	h.llcm.Completed(cycle, func(m cache.MSHR) {
		isPrefetch := m.Prefetch && !m.DemandMerged
		h.LLC.Insert(m.LineAddr, cycle, isPrefetch)
		h.Stats.LLC.Fills++
		if m.Prefetch {
			h.Stats.LLC.PrefetchFills++
		}
		h.fillComplete(LevelLLC, m.LineAddr, m.Prefetch)
	})
	h.l2m.Completed(cycle, func(m cache.MSHR) {
		isPrefetch := m.Prefetch && !m.DemandMerged
		h.L2.Insert(m.LineAddr, cycle, isPrefetch)
		h.Stats.L2.Fills++
		if m.Prefetch {
			h.Stats.L2.PrefetchFills++
		}
		h.fillComplete(LevelL2, m.LineAddr, m.Prefetch)
	})
	h.l1dm.Completed(cycle, func(m cache.MSHR) {
		isPrefetch := m.Prefetch && !m.DemandMerged
		h.L1D.Insert(m.LineAddr, cycle, isPrefetch)
		h.Stats.L1D.Fills++
		if m.Prefetch {
			h.Stats.L1D.PrefetchFills++
		}
		h.fillComplete(LevelL1, m.LineAddr, m.Prefetch)
	})
}

// fillComplete emits the observability event for a completed fill.
func (h *Hierarchy) fillComplete(level Level, lineAddr isa.Addr, prefetch bool) {
	if h.Obs != nil {
		h.Obs.FillComplete(uint64(level), uint64(lineAddr), prefetch)
	}
}

// Drain completes every in-flight fill regardless of cycle (end of run
// and invariant tests).
func (h *Hierarchy) Drain() {
	h.Tick(^uint64(0))
}

// CheckCounters verifies the request-path conservation invariant at
// every level after a Drain on a hierarchy whose stats were never reset
// mid-flight:
//
//	Fills == FillRequests − Merges − Drops − Retries
//
// and that no fill is still pending. It returns a descriptive error on
// the first violation.
func (h *Hierarchy) CheckCounters() error {
	type lvl struct {
		name string
		ls   *LevelStats
		f    *cache.MSHRFile
	}
	for _, l := range []lvl{
		{"L1D", &h.Stats.L1D, h.l1dm},
		{"L2", &h.Stats.L2, h.l2m},
		{"LLC", &h.Stats.LLC, h.llcm},
	} {
		if occ := l.f.Occupancy(); occ != 0 {
			return fmt.Errorf("memory: %s has %d fills still in flight (call Drain first)", l.name, occ)
		}
		supplied := l.ls.Fills
		expected := l.ls.FillRequests - l.ls.Merges - l.ls.Drops - l.ls.Retries
		if supplied != expected {
			return fmt.Errorf("memory: %s fill conservation violated: fills %d != requests %d − merges %d − drops %d − retries %d = %d",
				l.name, supplied, l.ls.FillRequests, l.ls.Merges, l.ls.Drops, l.ls.Retries, expected)
		}
		if l.f.Stats.Completions != l.f.Stats.Allocations {
			return fmt.Errorf("memory: %s MSHR completions %d != allocations %d after drain",
				l.name, l.f.Stats.Completions, l.f.Stats.Allocations)
		}
	}
	return nil
}
