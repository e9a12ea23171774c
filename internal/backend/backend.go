// Package backend models the out-of-order execution engine of the
// simulated machine: decode/dispatch into a reorder buffer, a unified
// reservation-station budget, per-class functional units, load/store
// buffers with dcache access, execute-time branch resolution with
// recovery, and in-order retirement.
//
// Fidelity is calibrated to what the paper's experiments observe: the
// backend consumes instructions at a bounded rate (making FDIP's
// runahead meaningful), branch resolution latency depends on the data
// dependencies feeding the branch (making recovery timing realistic),
// and icache-miss-induced fetch starvation surfaces as retire slots
// lost to frontend stalls (paper Fig. 15).
package backend

import (
	"udpsim/internal/frontend"
	"udpsim/internal/isa"
	"udpsim/internal/memory"
)

// Config sizes the backend (Table II defaults assembled by sim).
type Config struct {
	Width       int // decode/retire width
	ROBSize     int
	RSSize      int
	ALUs        int
	LoadPorts   int
	StorePorts  int
	LoadBuffer  int
	StoreBuffer int
	// MulLatency is the long-op execute latency.
	MulLatency int
	// DepProb is the probability (in 1/256ths) that an instruction
	// depends on a recent older instruction's completion; the synthetic
	// stand-in for register dependences.
	DepProb256 int
	// DepWindow is how far back (in ROB slots) a dependence may reach.
	DepWindow int
	// BranchResolveExtra models the fetch-to-execute pipeline depth a
	// branch traverses before it can redirect the frontend; it widens
	// the wrong-path window after a misprediction.
	BranchResolveExtra int
}

// Stats aggregates backend events.
type Stats struct {
	Retired         uint64
	RetiredBranches uint64
	Cycles          uint64
	ROBFullCycles   uint64
	RSFullCycles    uint64
	Recoveries      uint64
	// EmptyROBCycles counts cycles with nothing to retire because the
	// ROB was empty — pure frontend starvation.
	EmptyROBCycles uint64
	// RetireStallCycles counts cycles where retirement made no progress
	// with a non-empty ROB.
	RetireStallCycles uint64
	Flushed           uint64 // instructions squashed by recoveries
	FlushedOnPath     uint64 // on-path instructions squashed (post-recovery refetches)
	WrongPathExecuted uint64 // wrong-path instructions that entered the ROB
	// MemRetries counts load/store issue attempts rejected by the memory
	// hierarchy under MSHR pressure (the instruction re-issues next
	// cycle).
	MemRetries uint64
}

type entryState uint8

const (
	stateDispatched entryState = iota
	stateIssued
	stateDone
)

type robEntry struct {
	fi      *frontend.FrontInstr
	readyAt uint64 // execute completion cycle
	// wheelAt is the cycle whose completion-wheel bucket holds an issued
	// entry, and seq its issue order (see wheel.go).
	wheelAt uint64
	seq     uint64
	// rejectEpoch and rejectAddr are the hierarchy's DataEpoch and the
	// access address when the full L1D MSHR file last rejected this load
	// or store (meaningful while l1dRejected is set).
	rejectEpoch uint64
	rejectAddr  isa.Addr
	depOffset   int // dependence distance in ROB slots (0 = none)
	// prev and next link an issued entry into its wheel bucket.
	prev, next int32
	// gen disambiguates slot reuse for the pendingIssue list.
	gen   uint32
	state entryState
	// class and branch copy fi.Static's class and IsBranch at decode,
	// so the per-cycle scheduler loops need not dereference fi.
	class       isa.Class
	branch      bool
	valid       bool
	l1dRejected bool
}

// entryRef is a generation-checked reference into the ROB ring, letting
// the issue stage keep a compact list of dispatched entries instead of
// scanning the whole ROB every cycle; references to flushed entries go
// stale and are dropped lazily.
type entryRef struct {
	idx int
	gen uint32
}

// Backend is the out-of-order engine.
type Backend struct {
	cfg  Config
	fe   *frontend.Frontend
	hier *memory.Hierarchy

	rob   []robEntry
	head  int // oldest
	tail  int // next free
	count int

	// pendingIssue lists dispatched entries awaiting issue (see
	// entryRef); issued entries wait in the completion wheel.
	pendingIssue []entryRef
	wheel        []bucket
	issueSeq     uint64

	// The issue memo (see issue): the last walk kept the first memoLen
	// refs of pendingIssue without issuing or probing the hierarchy,
	// memoRej of them answered by RejectAgain, with DataEpoch memoEpoch
	// and free load/store buffers as memoLdFree/memoStFree at its start.
	memoLen    int
	memoRej    uint64
	memoEpoch  uint64
	memoLdFree bool
	memoStFree bool

	inFlightLoads  int
	inFlightStores int
	rsBusy         int // dispatched or issued but not yet done
	rng            uint64

	// RetireObserver, when non-nil, sees every retired instruction in
	// program order (tooling and invariant tests).
	RetireObserver func(*frontend.FrontInstr)

	Stats Stats
}

// New wires a backend to its frontend and memory hierarchy.
func New(cfg Config, fe *frontend.Frontend, hier *memory.Hierarchy) *Backend {
	if cfg.Width <= 0 {
		cfg.Width = 6
	}
	if cfg.ROBSize <= 0 {
		cfg.ROBSize = 352
	}
	if cfg.RSSize <= 0 {
		cfg.RSSize = 125
	}
	if cfg.ALUs <= 0 {
		cfg.ALUs = 4
	}
	if cfg.LoadPorts <= 0 {
		cfg.LoadPorts = 2
	}
	if cfg.StorePorts <= 0 {
		cfg.StorePorts = 2
	}
	if cfg.LoadBuffer <= 0 {
		cfg.LoadBuffer = 64
	}
	if cfg.StoreBuffer <= 0 {
		cfg.StoreBuffer = 64
	}
	if cfg.MulLatency <= 0 {
		cfg.MulLatency = 4
	}
	if cfg.DepWindow <= 0 {
		cfg.DepWindow = 8
	}
	if cfg.DepProb256 == 0 {
		cfg.DepProb256 = 56 // ~22% of instructions carry a modelled dependence
	}
	if cfg.BranchResolveExtra == 0 {
		cfg.BranchResolveExtra = 10
	}
	return &Backend{
		cfg:  cfg,
		fe:   fe,
		hier: hier,
		rob:  make([]robEntry, cfg.ROBSize),
		// pendingIssue is bounded by the live ROB window (plus one
		// decode group of stale refs awaiting compaction); preallocating
		// keeps the per-cycle loop allocation-free.
		pendingIssue: make([]entryRef, 0, cfg.ROBSize+cfg.Width),
		wheel:        newWheel(),
		rng:          0x9e3779b97f4a7c15,
	}
}

// ResetStats clears the backend's accumulated statistics (end of
// warmup) while preserving pipeline state.
func (b *Backend) ResetStats() { b.Stats = Stats{} }

// Cycle advances the backend: retire, complete/resolve, issue, decode.
func (b *Backend) Cycle(cycle uint64) {
	b.Stats.Cycles++
	b.retire(cycle)
	b.complete(cycle)
	b.issue(cycle)
	b.decode(cycle)
}

// retire commits up to Width oldest completed instructions in order.
func (b *Backend) retire(cycle uint64) {
	if b.count == 0 {
		b.Stats.EmptyROBCycles++
		return
	}
	retired := 0
	for retired < b.cfg.Width && b.count > 0 {
		e := &b.rob[b.head]
		if e.state != stateDone || e.readyAt > cycle {
			break
		}
		fi := e.fi
		if fi.OnPath {
			b.Stats.Retired++
			if e.branch {
				b.Stats.RetiredBranches++
			}
			b.fe.OnRetire(fi, cycle)
			if b.RetireObserver != nil {
				b.RetireObserver(fi)
			}
			// Retirement is the instruction's last use: recycle it.
			b.fe.ReleaseInstr(fi)
		} else {
			// Wrong-path instructions normally get squashed by the
			// recovery flush before retiring; an off-path instruction
			// reaching the ROB head can only happen if its divergence
			// resolution is still in flight — hold it.
			break
		}
		b.popHead()
		retired++
	}
	if retired == 0 && b.count > 0 {
		b.Stats.RetireStallCycles++
	}
}

// recoverAt flushes all ROB entries younger than idx and resteers the
// frontend.
func (b *Backend) recoverAt(idx int, cycle uint64) {
	b.Stats.Recoveries++
	b.memoLen, b.memoRej = 0, 0
	fi := b.rob[idx].fi
	// Squash younger entries.
	j := (idx + 1) % len(b.rob)
	for b.tail != j {
		k := (b.tail - 1 + len(b.rob)) % len(b.rob)
		e := &b.rob[k]
		if e.valid {
			if e.state == stateIssued {
				switch e.class {
				case isa.ClassLoad:
					b.inFlightLoads--
				case isa.ClassStore:
					b.inFlightStores--
				}
				b.unlink(int32(k))
			}
			if e.state != stateDone {
				b.rsBusy--
			}
			b.Stats.Flushed++
			if e.fi.OnPath {
				b.Stats.FlushedOnPath++
			}
			e.valid = false
			// A squashed instruction has no further readers (it left the
			// wheel above; pendingIssue refs are dropped by the valid/gen
			// checks): recycle it.
			b.fe.ReleaseInstr(e.fi)
			e.fi = nil
			b.count--
		}
		b.tail = k
	}
	b.fe.Recover(fi, cycle)
}

// issue moves dispatched instructions to execution, respecting
// functional-unit ports, load/store buffers, and dependences.
//
// The walk replays its stable prefix. The leading run of entries the
// last walk kept without issuing or calling DataRequest (MSHR-full
// retries answered by RejectAgain, producer waits and full load/store
// buffers) consumed no port and did not move DataEpoch, so if DataEpoch
// and both buffers' fullness are as they were at that walk's start,
// and no recovery has happened since, every entry of the run is kept
// again for the same reason: its retries are counted in bulk and the
// walk starts after it. A waiting entry's producer is older, so it sits
// in the run too and is still dispatched. Decode only appends younger
// entries after the run. An attached observer needs each retry's event
// in age order, so observed walks start at 0.
func (b *Backend) issue(cycle uint64) {
	alu := b.cfg.ALUs
	ld := b.cfg.LoadPorts
	st := b.cfg.StorePorts
	// epoch follows the hierarchy's DataEpoch through the cycle: only a
	// DataRequest can move it.
	epoch := b.hier.DataEpoch()
	ldFree := b.inFlightLoads < b.cfg.LoadBuffer
	stFree := b.inFlightStores < b.cfg.StoreBuffer
	from := 0
	if b.memoLen > 0 && b.hier.Obs == nil && epoch == b.memoEpoch &&
		ldFree == b.memoLdFree && stFree == b.memoStFree {
		from = b.memoLen
		b.Stats.MemRetries += b.memoRej
		b.hier.RejectAgainN(b.memoRej)
	} else {
		b.memoLen, b.memoRej = 0, 0
	}
	b.memoEpoch, b.memoLdFree, b.memoStFree = epoch, ldFree, stFree
	// stable holds until the first entry that issues or probes.
	stable := true
	keep := b.pendingIssue[:from]
	for _, ref := range b.pendingIssue[from:] {
		idx := ref.idx
		e := &b.rob[idx]
		if !e.valid || e.gen != ref.gen || e.state != stateDispatched {
			continue // flushed
		}
		// A free port and buffer slot. No check before the request has
		// side effects, so their order does not matter.
		var free bool
		switch e.class {
		case isa.ClassLoad:
			free = ld > 0 && b.inFlightLoads < b.cfg.LoadBuffer
		case isa.ClassStore:
			free = st > 0 && b.inFlightStores < b.cfg.StoreBuffer
		default:
			free = alu > 0
		}
		if !free {
			keep = append(keep, ref)
			continue
		}
		if e.l1dRejected && e.rejectEpoch == epoch {
			// Nothing entered or left the L1D or its MSHR file since the
			// full file rejected this access, so it is rejected again.
			// Its producer had issued by the first attempt: the
			// dependence check below cannot hold it.
			b.hier.RejectAgain(e.rejectAddr)
			b.Stats.MemRetries++
			if stable {
				b.memoRej++
			}
			keep = append(keep, ref)
			continue
		}
		// Dependence: wait for the older instruction's completion.
		start := cycle
		if dep := b.producer(idx); dep != nil {
			if dep.state == stateDispatched {
				keep = append(keep, ref) // producer not even issued
				continue
			}
			if dep.readyAt > start {
				start = dep.readyAt
			}
		}
		// The entry probes the hierarchy or issues: the stable run ends.
		if stable {
			b.memoLen, stable = len(keep), false
		}
		var lat uint64
		switch e.class {
		case isa.ClassLoad, isa.ClassStore:
			addr := b.dataAddr(e.fi)
			l, level, ok := b.hier.DataRequest(addr, start)
			epoch = b.hier.DataEpoch()
			if !ok {
				// MSHR pressure in the hierarchy: nothing was consumed,
				// the access re-issues next cycle.
				b.Stats.MemRetries++
				e.l1dRejected = level == memory.LevelL1
				e.rejectEpoch = epoch
				e.rejectAddr = addr
				keep = append(keep, ref)
				continue
			}
			if e.class == isa.ClassLoad {
				ld--
				b.inFlightLoads++
				lat = l
			} else {
				// Stores retire through the store buffer; model a short
				// pipeline latency (the dcache write happens
				// post-commit), but the write-allocate fill still
				// occupies MSHRs and bandwidth like any other request.
				st--
				b.inFlightStores++
				lat = 1
			}
		case isa.ClassMul:
			alu--
			lat = uint64(b.cfg.MulLatency)
		default: // ALU, branches, nops
			alu--
			lat = 1
			if e.branch {
				// Resolution happens at the end of the execute stage,
				// a full pipeline traversal after decode.
				lat += uint64(b.cfg.BranchResolveExtra)
			}
		}
		e.state = stateIssued
		e.readyAt = start + lat
		b.schedule(int32(idx), cycle)
	}
	if stable {
		b.memoLen = len(keep)
	}
	b.pendingIssue = keep
}

// producer returns the entry idx depends on while it is still live in
// the ROB window behind idx, or nil.
func (b *Backend) producer(idx int) *robEntry {
	off := b.rob[idx].depOffset
	if off == 0 || !b.olderInWindow(idx, off) {
		return nil
	}
	dep := &b.rob[(idx-off+len(b.rob))%len(b.rob)]
	if !dep.valid {
		return nil
	}
	return dep
}

// olderInWindow reports whether an entry depOffset slots older than idx
// is still inside the live ROB window.
func (b *Backend) olderInWindow(idx, depOffset int) bool {
	// Distance from head to idx in ring order.
	dist := (idx - b.head + len(b.rob)) % len(b.rob)
	return depOffset <= dist
}

// dataAddr picks the memory address for a load/store: the resolved
// oracle address on the correct path, the static representative address
// on the wrong path (the same replay approximation Scarab's trace mode
// makes, as the paper notes in Section III-A).
func (b *Backend) dataAddr(fi *frontend.FrontInstr) isa.Addr {
	if fi.OnPath {
		return fi.Oracle.DataAddr
	}
	return fi.Static.DataAddr()
}

// decode pulls instructions from the frontend's decode queue into the
// ROB, invoking post-fetch correction per instruction.
func (b *Backend) decode(cycle uint64) {
	for n := 0; n < b.cfg.Width; n++ {
		if b.count >= len(b.rob) {
			b.Stats.ROBFullCycles++
			return
		}
		if b.rsBusy >= b.cfg.RSSize {
			b.Stats.RSFullCycles++
			return
		}
		fi := b.fe.PopDecode()
		if fi == nil {
			return
		}
		if !fi.OnPath {
			b.Stats.WrongPathExecuted++
		}
		resteered := b.fe.OnDecode(fi, cycle)
		// Initialise the slot in place. The fields left alone are
		// written before they are read again: readyAt, seq and the wheel
		// links at issue, the reject epoch and address with l1dRejected.
		e := &b.rob[b.tail]
		e.gen++
		e.fi = fi
		e.state = stateDispatched
		e.valid = true
		e.class = fi.Static.Class
		e.branch = fi.Static.IsBranch()
		e.l1dRejected = false
		b.pendingIssue = append(b.pendingIssue, entryRef{idx: b.tail, gen: e.gen})
		// Synthetic dependence assignment.
		b.rng = b.rng*6364136223846793005 + 1442695040888963407
		e.depOffset = 0
		if int(b.rng>>56)&0xff < b.cfg.DepProb256 {
			e.depOffset = 1 + int((b.rng>>32)%uint64(b.cfg.DepWindow))
		}
		b.tail = (b.tail + 1) % len(b.rob)
		b.count++
		b.rsBusy++
		if resteered {
			// Everything younger was flushed in the frontend; stop
			// decoding this cycle.
			return
		}
	}
}

func (b *Backend) popHead() {
	// The slot keeps its generation so stale pendingIssue references
	// can never alias a future occupant; decode initialises the rest.
	e := &b.rob[b.head]
	e.valid = false
	e.fi = nil
	b.head = (b.head + 1) % len(b.rob)
	b.count--
}
