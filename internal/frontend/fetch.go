package frontend

import (
	"udpsim/internal/cache"
	"udpsim/internal/isa"
)

// completeFills installs finished MSHR fills into the icache, charging
// useless-prefetch evictions to the tuner.
func (f *Frontend) completeFills(cycle uint64) {
	f.mshrs.Completed(cycle, func(m cache.MSHR) {
		// A prefetch-initiated fill whose demand merged keeps its
		// prefetch provenance cleared: the line was already consumed.
		isPrefetch := m.Prefetch && !m.DemandMerged
		if f.Obs != nil && m.Prefetch {
			f.Obs.PrefetchArrived(uint64(m.LineAddr), m.IssueCycle, m.OffPath, m.DemandMerged)
		}
		ev := f.icache.InsertPath(m.LineAddr, cycle, isPrefetch, m.OffPath)
		if ev.Valid && ev.WasUnusedPrefetch {
			f.Stats.PrefetchUseless++
			if ev.WasOffPath {
				f.Stats.PrefetchUselessOff++
			}
			if f.Obs != nil {
				f.Obs.PrefetchEvicted(uint64(ev.LineAddr), ev.WasOffPath)
			}
			f.tuner.OnPrefetchUseless(ev.LineAddr, ev.WasOffPath)
		}
		if f.ext != nil {
			f.ext.OnFill(m.LineAddr, cycle)
		}
		if f.cfg.PredecodeBTBFill {
			f.predecodeLine(m.LineAddr, cycle)
		}
	})
}

// predecodeLine walks a freshly filled line's instructions and installs
// its branches into the BTB (predecode-based BTB fill).
func (f *Frontend) predecodeLine(line isa.Addr, cycle uint64) {
	code := f.prog.StaticCode()
	for pc := line; pc < line+isa.LineBytes; pc += isa.InstrBytes {
		i, ok := f.prog.Index(pc)
		if !ok || !code[i].IsBranch() {
			continue // past the image there are only nops
		}
		si := &code[i]
		// Predecode sees kind and direct targets; indirect targets stay
		// unknown until execution, so only install resolvable entries
		// and returns (whose target comes from the RAS anyway).
		switch si.Branch {
		case isa.BranchCond, isa.BranchUncond, isa.BranchCall, isa.BranchReturn:
			if !f.btb.Probe(pc) {
				f.btb.Insert(pc, si.Branch, si.Target(), cycle)
				f.Stats.PredecodeBTBFills++
			}
		}
	}
}

// fdipScan runs FDIP's runahead over unscanned FTQ blocks, probing the
// icache and emitting prefetches (paper Section II).
func (f *Frontend) fdipScan(cycle uint64) {
	if f.cfg.NoPrefetch || f.cfg.PerfectICache {
		return
	}
	for i := 0; i < f.cfg.ScanPerCycle; i++ {
		fb := f.ftq.NextUnscanned()
		if fb == nil {
			return
		}
		fb.Scanned = true
		f.considerPrefetch(fb.Line(), fb, cycle)
	}
}

// considerPrefetch evaluates one prefetch candidate line for a block.
func (f *Frontend) considerPrefetch(line isa.Addr, fb *FetchBlock, cycle uint64) {
	if f.icache.Lookup(line) {
		return
	}
	if m := f.mshrs.Lookup(line); m != nil {
		f.Stats.PrefetchesMerged++
		f.mshrs.Stats.PrefetchMerges++
		return
	}
	// This is a prefetch candidate in the paper's sense: an FTQ block's
	// line absent from the icache.
	fb.PrefetchCandidates++
	count := 1
	if fb.AssumedOffPath {
		f.tuner.OnCandidate(line)
		count = f.tuner.FilterCandidate(line)
		if count <= 0 {
			f.Stats.PrefetchesDropped++
			return
		}
	}
	for k := 0; k < count; k++ {
		l := line + isa.Addr(k*isa.LineBytes)
		if k > 0 {
			if f.icache.Lookup(l) || f.mshrs.Lookup(l) != nil {
				continue
			}
			f.Stats.SuperLinePrefetches++
		}
		f.emitPrefetch(l, fb.OffPath, cycle)
	}
}

// emitPrefetch issues a prefetch fill for line through the shared
// request path. It is dropped (counted) when the L1I MSHR file is full
// or the hierarchy rejects it under L2/LLC MSHR pressure — nothing is
// charged to DRAM or the fill ports for a dropped prefetch.
func (f *Frontend) emitPrefetch(line isa.Addr, offPath bool, cycle uint64) {
	if f.mshrs.Full() {
		f.mshrs.Stats.AllocFailures++
		f.Stats.PrefetchBackpressure++
		return
	}
	ready, _, ok := f.hier.InstrRequest(line, cycle, true)
	if !ok {
		f.Stats.PrefetchBackpressure++
		return
	}
	f.mshrs.Allocate(line, cycle, ready, true, offPath)
	f.Stats.PrefetchesEmitted++
	if offPath {
		f.Stats.PrefetchesOffPath++
	} else {
		f.Stats.PrefetchesOnPath++
	}
	if f.Obs != nil {
		f.Obs.PrefetchEmitted(uint64(line), offPath)
	}
}

// fetchStage demands the FTQ head block from the L1I and streams its
// instructions into the decode queue.
func (f *Frontend) fetchStage(cycle uint64) {
	budget := f.cfg.FetchWidth
	stalled := false
	for budget > 0 && !f.decodeQ.full() {
		if f.curBlock == nil {
			fb := f.ftq.Peek()
			if fb == nil {
				f.Stats.FTQEmptyCycles++
				return
			}
			f.ftq.Pop()
			f.curBlock = fb
			f.curIdx = 0
			f.needAccess = true
		}
		if f.needAccess {
			if !f.accessBlockLine(f.curBlock, cycle) {
				// MSHR full on a demand miss: retry next cycle.
				f.Stats.FetchStallCycles++
				return
			}
			f.needAccess = false
		}
		if cycle < f.blockReady {
			if !stalled {
				f.Stats.FetchStallCycles++
				stalled = true
			}
			return
		}
		fi := f.curBlock.Instrs[f.curIdx]
		f.decodeQ.push(fi)
		f.curIdx++
		budget--
		if f.curIdx >= len(f.curBlock.Instrs) {
			// Fully streamed: the instructions now belong to the decode
			// queue/backend; only the block shell returns to the pool.
			f.blocks.put(f.curBlock)
			f.curBlock = nil
		}
	}
}

// accessBlockLine performs the demand icache access for a block,
// classifying timeliness and prefetch usefulness. It returns false when
// the access must be retried (MSHR pressure).
func (f *Frontend) accessBlockLine(fb *FetchBlock, cycle uint64) bool {
	line := fb.Line()
	// Timeliness classification happens per line *transition*: two
	// consecutive 32B blocks in one 64B line are one demand access of
	// that line, matching the paper's per-line icache/MSHR hit ratio.
	newLine := line != f.lastDemandLine
	// Hit latency is fully pipelined in a real frontend: a hit delivers
	// without stalling fetch, so blockReady is the current cycle. Only
	// misses (and fill-buffer waits) stall.
	if f.cfg.PerfectICache {
		f.blockReady = cycle
		if newLine {
			f.lastDemandLine = line
			f.Stats.DemandIcacheHits++
			f.tuner.OnDemandFetch(true, false)
		}
		return true
	}
	res := f.icache.Access(line, cycle)
	if res.Hit {
		f.blockReady = cycle
		if newLine {
			f.lastDemandLine = line
			f.Stats.DemandIcacheHits++
			f.tuner.OnDemandFetch(true, false)
		}
		if res.WasPrefetched {
			f.Stats.PrefetchUseful++
			if res.WasOffPathPrefetch {
				f.Stats.PrefetchUsefulOff++
			}
			if f.Obs != nil {
				f.Obs.PrefetchHit(uint64(line), 0, false)
			}
			f.tuner.OnPrefetchUseful(line, res.WasOffPathPrefetch)
		}
		f.notifyExternal(line, true, cycle)
		return true
	}
	if m := f.mshrs.Lookup(line); m != nil {
		// Fill-buffer hit: the line is in flight; pay the remainder.
		wasPrefetch := m.Prefetch && !m.DemandMerged
		ready := f.mshrs.MergeDemand(m)
		if ready < cycle {
			ready = cycle
		}
		f.blockReady = ready + 1
		f.lastDemandLine = line
		f.Stats.DemandFillBufHits++
		f.tuner.OnDemandFetch(false, true)
		if wasPrefetch {
			// A useful but untimely prefetch.
			f.Stats.PrefetchUseful++
			if m.OffPath {
				f.Stats.PrefetchUsefulOff++
			}
			if f.Obs != nil {
				f.Obs.PrefetchHit(uint64(line), f.blockReady-cycle, true)
			}
			f.tuner.OnPrefetchUseful(line, m.OffPath)
		}
		f.notifyExternal(line, false, cycle)
		return true
	}
	// Full demand miss: reserve the L1I MSHR first, then ask the shared
	// hierarchy. A rejection at either point leaves no side effects (no
	// phantom DRAM traffic) so the identical access retries next cycle.
	if f.mshrs.Full() {
		f.mshrs.Stats.AllocFailures++
		f.Stats.DemandMissRetries++
		return false
	}
	ready, _, ok := f.hier.InstrRequest(line, cycle, false)
	if !ok {
		f.Stats.DemandMissRetries++
		return false
	}
	f.mshrs.Allocate(line, cycle, ready, false, false)
	f.blockReady = ready
	f.lastDemandLine = line
	f.Stats.DemandMisses++
	f.tuner.OnDemandFetch(false, false)
	f.notifyExternal(line, false, cycle)
	return true
}

// notifyExternal feeds the auxiliary prefetcher (the EIP comparator)
// and emits its suggestions on top of FDIP's. The paper's ISO-storage
// comparison adds EIP's 8KB of metadata to the same machine; a
// configuration replacing FDIP entirely is available by combining an
// external prefetcher with NoPrefetch.
func (f *Frontend) notifyExternal(line isa.Addr, hit bool, cycle uint64) {
	if f.ext == nil {
		return
	}
	for _, l := range f.ext.OnDemandAccess(line, hit, cycle) {
		if f.icache.Lookup(l) || f.mshrs.Lookup(l) != nil {
			continue
		}
		f.emitPrefetch(l, false, cycle)
	}
}
