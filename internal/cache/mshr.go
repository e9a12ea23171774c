package cache

import "udpsim/internal/isa"

// MSHR is one miss-status holding register: an in-flight fill for a cache
// line. Entries double as the fill buffer in the paper's terminology —
// a demand access that finds its line in an MSHR "hits the fill buffer"
// and pays only the remaining latency. That event is exactly what the
// paper counts as an *untimely* (but still useful) prefetch hit.
type MSHR struct {
	LineAddr isa.Addr
	// Prefetch is true while the fill was initiated by a prefetch and no
	// demand access has merged into it yet.
	Prefetch bool
	// DemandMerged is set when a demand access merged into a
	// prefetch-initiated fill (the "fill buffer hit").
	DemandMerged bool
	// IssueCycle is when the fill was initiated.
	IssueCycle uint64
	// ReadyCycle is when the line data arrives and may be installed.
	ReadyCycle uint64
	// OffPath is true when the initiating prefetch was emitted while the
	// frontend was on the wrong path (carried through so usefulness can
	// be attributed to off-path prefetches).
	OffPath bool
}

// MSHRStats counts MSHR file events.
type MSHRStats struct {
	Allocations         uint64
	PrefetchAllocations uint64
	DemandMerges        uint64 // demand access found the line in flight
	PrefetchMerges      uint64 // prefetch found the line already in flight
	AllocFailures       uint64 // all entries busy
	Completions         uint64
}

// MSHRFile is a fixed-capacity collection of MSHRs. Occupancy and the
// earliest in-flight completion cycle are tracked incrementally so the
// per-cycle Completed sweep is O(1) when nothing can complete — the
// file sits on the simulator's hot loop at every cache level.
//
// The line addresses and ready cycles of the entries are also kept
// packed in lines and ready, with freeLine and neverReady marking a free
// slot, so Lookup, Allocate and the Completed sweep scan one word per
// entry instead of striding the MSHR structs.
type MSHRFile struct {
	entries   []MSHR
	lines     []isa.Addr // lines[i] is entries[i].LineAddr, or freeLine
	ready     []uint64   // ready[i] is entries[i].ReadyCycle, or neverReady
	occupied  int
	nextReady uint64 // earliest ReadyCycle among valid entries (neverReady when empty)
	// version changes whenever an entry is allocated, completed or
	// flushed (see Version).
	version uint64
	Stats   MSHRStats
}

// neverReady is the nextReady sentinel for an empty file.
const neverReady = ^uint64(0)

// freeLine marks a free slot in MSHRFile.lines. Line addresses are
// line-aligned, so no real line address equals it.
const freeLine = ^isa.Addr(0)

// NewMSHRFile builds a file with n entries.
func NewMSHRFile(n int) *MSHRFile {
	if n <= 0 {
		panic("cache: MSHR file needs at least one entry")
	}
	f := &MSHRFile{entries: make([]MSHR, n), lines: make([]isa.Addr, n), ready: make([]uint64, n)}
	f.Flush()
	return f
}

// Version returns a counter that changes whenever an entry is
// allocated, completed or flushed. Equal versions mean the set of
// in-flight lines, and so Full, is unchanged.
func (f *MSHRFile) Version() uint64 { return f.version }

// Lookup returns the in-flight entry for lineAddr, or nil.
func (f *MSHRFile) Lookup(lineAddr isa.Addr) *MSHR {
	for i, l := range f.lines {
		if l == lineAddr {
			return &f.entries[i]
		}
	}
	return nil
}

// Allocate reserves an entry for a new fill. It returns nil when the file
// is full (the requester must retry or stall).
func (f *MSHRFile) Allocate(lineAddr isa.Addr, issue, ready uint64, prefetch, offPath bool) *MSHR {
	if f.occupied < len(f.entries) {
		for i, l := range f.lines {
			if l != freeLine {
				continue
			}
			f.lines[i] = lineAddr
			f.ready[i] = ready
			f.entries[i] = MSHR{
				LineAddr:   lineAddr,
				Prefetch:   prefetch,
				IssueCycle: issue,
				ReadyCycle: ready,
				OffPath:    offPath,
			}
			f.Stats.Allocations++
			if prefetch {
				f.Stats.PrefetchAllocations++
			}
			f.occupied++
			f.version++
			if ready < f.nextReady {
				f.nextReady = ready
			}
			return &f.entries[i]
		}
	}
	f.Stats.AllocFailures++
	return nil
}

// MergeDemand records a demand access merging into an in-flight fill.
// It returns the cycle at which the data will be available.
func (f *MSHRFile) MergeDemand(m *MSHR) uint64 {
	if m.Prefetch && !m.DemandMerged {
		m.DemandMerged = true
		f.Stats.DemandMerges++
	}
	return m.ReadyCycle
}

// Completed collects entries whose fills have arrived by cycle, invoking
// install for each and freeing them. The install callback receives the
// finished entry by value. The sweep is skipped entirely when no entry
// can have completed (the common per-cycle case).
func (f *MSHRFile) Completed(cycle uint64, install func(MSHR)) {
	if f.occupied == 0 || cycle < f.nextReady {
		return
	}
	// Recompute from scratch: reset to the sentinel so an install
	// callback that re-Allocates into this file lowers it via Allocate,
	// then fold in the minimum over the surviving entries below.
	f.nextReady = neverReady
	next := uint64(neverReady)
	for i, r := range f.ready {
		if r > cycle {
			if r < next {
				next = r
			}
			continue
		}
		if f.lines[i] == freeLine {
			continue // only a Drain sweep (cycle = neverReady) gets here
		}
		e := f.entries[i]
		f.lines[i] = freeLine
		f.ready[i] = neverReady
		f.occupied--
		f.version++
		f.Stats.Completions++
		install(e)
	}
	if next < f.nextReady {
		f.nextReady = next
	}
}

// Occupancy returns the number of in-flight entries.
func (f *MSHRFile) Occupancy() int { return f.occupied }

// Capacity returns the file size.
func (f *MSHRFile) Capacity() int { return len(f.entries) }

// Full reports whether no entry is free.
func (f *MSHRFile) Full() bool { return f.occupied == len(f.entries) }

// Flush drops all in-flight entries (used only by tests and machine
// reset; real fills are never cancelled mid-flight by the frontend).
func (f *MSHRFile) Flush() {
	for i := range f.lines {
		f.lines[i] = freeLine
		f.ready[i] = neverReady
	}
	f.occupied = 0
	f.nextReady = neverReady
	f.version++
}
