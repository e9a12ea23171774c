// Package frontend models the decoupled frontend of the simulated
// machine (paper Fig. 2): a branch-prediction-driven fetch-block builder
// feeding the fetch target queue (FTQ), the FDIP prefetch scanner that
// runs ahead over the FTQ, the fetch stage that demands blocks from the
// L1I, post-fetch correction for BTB misses discovered at decode, and
// full wrong-path tracking against the oracle stream.
package frontend

import (
	"udpsim/internal/bp"
	"udpsim/internal/isa"
)

// PredictedBranch records the frontend's view of one control-flow
// decision inside a fetch block, with everything recovery needs.
type PredictedBranch struct {
	PC   isa.Addr
	Kind isa.BranchKind
	Pred bp.Prediction
	// HasPred is true when Pred holds a real direction-predictor lookup
	// (conditional branches only); training must be skipped otherwise.
	HasPred    bool
	PredTaken  bool
	PredTarget isa.Addr
	// HistSnap/RASSnap capture speculative state *before* this branch's
	// speculative update, for recovery.
	HistSnap bp.HistState
	RASSnap  int
	// FromBTB is false when the branch was invisible at build time (BTB
	// miss) and will be discovered at decode (post-fetch correction).
	FromBTB bool
}

// Predicted reports whether a direction prediction was recorded.
func (pb *PredictedBranch) Predicted() bool { return pb.HasPred }

// FrontInstr is one instruction flowing down the pipe from fetch-block
// build to retirement.
type FrontInstr struct {
	Static *isa.StaticInstr
	// OnPath is true when this instruction matches the oracle stream.
	OnPath bool
	// Oracle is the matching oracle record; valid only when OnPath.
	Oracle isa.DynInstr
	// Branch is non-nil for control-flow instructions the frontend
	// predicted (or will discover at decode).
	Branch *PredictedBranch
	// Divergence is non-nil when this instruction is the point where
	// the frontend left the oracle path.
	Divergence *Divergence
	// FetchSeq is a monotonically increasing fetch-order tag used to
	// flush younger instructions on recovery.
	FetchSeq uint64
	// OracleCursorAfter is the oracle stream position right after this
	// instruction (valid only when OnPath); recovery rewinds to it.
	OracleCursorAfter uint64

	// branchStorage and divStorage are the value storage Branch and
	// Divergence point into when set: a FrontInstr carries at most one
	// of each, so embedding them in the pooled instruction removes the
	// last per-instruction heap allocations from the cycle loop. They
	// are live exactly as long as the owning instruction (the frontend
	// clears its cross-instruction divergence pointer before the owner
	// is released; see flushYoungerThan and Recover). nopStorage is
	// what Static points at when the walk left the image: a nop at the
	// walked pc, held here for the same reason.
	branchStorage PredictedBranch
	divStorage    Divergence
	nopStorage    isa.StaticInstr
}

// DivKind classifies why the frontend diverged from the oracle path.
type DivKind uint8

// Divergence kinds.
const (
	// DivDirection: conditional predicted the wrong way.
	DivDirection DivKind = iota
	// DivTarget: taken direction right (or unconditional) but predicted
	// target wrong (indirect/return).
	DivTarget
	// DivBTBMiss: a taken branch was invisible (BTB miss) so the
	// frontend walked past it sequentially.
	DivBTBMiss
	// DivPostFetch: post-fetch correction resteered to a direction or
	// target that itself disagrees with the oracle.
	DivPostFetch
)

// Divergence carries recovery state for the branch where the frontend
// left the oracle path.
type Divergence struct {
	Kind DivKind
	// RecoverPC is the architecturally correct next PC.
	RecoverPC isa.Addr
	// OracleCursor is the oracle stream position immediately after the
	// diverging instruction.
	OracleCursor uint64
	// HistSnap/RASSnap restore speculative predictor state.
	HistSnap bp.HistState
	RASSnap  int
	// ActualTaken/ActualTarget re-inject the correct outcome into
	// speculative history after restore (conditional/indirect kinds).
	ActualTaken  bool
	ActualTarget isa.Addr
	BranchPC     isa.Addr
	BranchKind   isa.BranchKind
	// BornCycle is when the frontend diverged (resolution-latency
	// accounting).
	BornCycle uint64
}

// FetchBlock is one FTQ entry: a run of sequential instructions ending
// at a predicted-taken branch or the fetch-block boundary.
type FetchBlock struct {
	StartPC isa.Addr
	// Instrs are the instructions the frontend walked for this block in
	// order (at most isa.InstrPerBlock).
	Instrs []*FrontInstr
	// NextPC is where the following block starts.
	NextPC isa.Addr
	// OffPath is the *model's* ground-truth: the block was built while
	// diverged from the oracle.
	OffPath bool
	// AssumedOffPath is the *mechanism's* belief (UDP confidence
	// counter) at build time; UDP filters prefetches for these blocks.
	AssumedOffPath bool
	// Scanned marks FDIP progress.
	Scanned bool
	// PrefetchCandidates counts lines FDIP considered for this block.
	PrefetchCandidates int
	// Seq is the block build sequence number.
	Seq uint64
}

// Line returns the cache line the block occupies (a 32B fetch block
// aligned inside a 64B line never spans two lines).
func (fb *FetchBlock) Line() isa.Addr { return fb.StartPC.Line() }

// FTQ is the fetch target queue: a FIFO of fetch blocks with a dynamic
// capacity (UFTQ adjusts it at runtime) bounded by a physical maximum.
type FTQ struct {
	blocks []*FetchBlock
	head   int
	tail   int
	count  int
	cap    int // current logical capacity (<= len(blocks))
	// scan is the FDIP scan pointer: index (relative to head) of the
	// next unscanned block.
	scanned int

	// OccupancySum/OccupancySamples accumulate the average-occupancy
	// statistic of paper Fig. 8.
	OccupancySum     uint64
	OccupancySamples uint64
}

// NewFTQ builds an FTQ with the given physical maximum and initial
// logical capacity.
func NewFTQ(physMax, capacity int) *FTQ {
	if physMax <= 0 {
		panic("frontend: FTQ physical size must be positive")
	}
	if capacity <= 0 || capacity > physMax {
		capacity = physMax
	}
	return &FTQ{blocks: make([]*FetchBlock, physMax), cap: capacity}
}

// Push appends a block; it must not be called when Full.
func (q *FTQ) Push(fb *FetchBlock) {
	if q.Full() {
		panic("frontend: push to full FTQ")
	}
	q.blocks[q.tail] = fb
	q.tail = (q.tail + 1) % len(q.blocks)
	q.count++
}

// Pop removes and returns the head block.
func (q *FTQ) Pop() *FetchBlock {
	if q.count == 0 {
		return nil
	}
	fb := q.blocks[q.head]
	q.blocks[q.head] = nil
	q.head = (q.head + 1) % len(q.blocks)
	q.count--
	if q.scanned > 0 {
		q.scanned--
	}
	return fb
}

// Peek returns the head block without removing it.
func (q *FTQ) Peek() *FetchBlock {
	if q.count == 0 {
		return nil
	}
	return q.blocks[q.head]
}

// NextUnscanned returns the next block for FDIP to scan, advancing the
// scan pointer; nil when fully scanned.
func (q *FTQ) NextUnscanned() *FetchBlock {
	if q.scanned >= q.count {
		return nil
	}
	fb := q.blocks[(q.head+q.scanned)%len(q.blocks)]
	q.scanned++
	return fb
}

// FlushYoungerThan removes blocks with Seq > seq (post-fetch correction
// flushes only the blocks younger than the discovered branch).
func (q *FTQ) FlushYoungerThan(seq uint64) {
	for q.count > 0 {
		tailIdx := (q.tail - 1 + len(q.blocks)) % len(q.blocks)
		if q.blocks[tailIdx].Seq <= seq {
			return
		}
		q.blocks[tailIdx] = nil
		q.tail = tailIdx
		q.count--
		if q.scanned > q.count {
			q.scanned = q.count
		}
	}
}

// Len returns the number of queued blocks.
func (q *FTQ) Len() int { return q.count }

// Cap returns the current logical capacity.
func (q *FTQ) Cap() int { return q.cap }

// PhysMax returns the physical capacity bound.
func (q *FTQ) PhysMax() int { return len(q.blocks) }

// Full reports whether the queue is at logical capacity.
func (q *FTQ) Full() bool { return q.count >= q.cap }

// SetCap adjusts the logical capacity within [1, PhysMax]. Shrinking
// below the current occupancy is allowed: existing blocks drain, new
// pushes wait.
func (q *FTQ) SetCap(n int) {
	if n < 1 {
		n = 1
	}
	if n > len(q.blocks) {
		n = len(q.blocks)
	}
	q.cap = n
}

// SampleOccupancy records the current occupancy for Fig. 8.
func (q *FTQ) SampleOccupancy() {
	q.OccupancySum += uint64(q.count)
	q.OccupancySamples++
}

// MeanOccupancy returns the average sampled occupancy.
func (q *FTQ) MeanOccupancy() float64 {
	if q.OccupancySamples == 0 {
		return 0
	}
	return float64(q.OccupancySum) / float64(q.OccupancySamples)
}
