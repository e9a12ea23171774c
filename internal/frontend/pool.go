package frontend

import "udpsim/internal/isa"

// Free-list pools for the two object kinds the prediction stage mints
// every cycle: fetch blocks and the instructions inside them. The
// per-cycle hot loop must not allocate — an experiment cell runs ~10^8
// cycles, and any allocation on this path serializes the parallel
// experiment grid behind the garbage collector (the zero-alloc
// invariant is pinned by TestMachineStepZeroAlloc and the CI benchmark
// gate).
//
// Ownership discipline:
//
//   - A FetchBlock is owned by the FTQ from Push until Pop, then by the
//     fetch stage as curBlock; it is released when fully streamed into
//     the decode queue (fetchStage) or flushed (flushYoungerThan). The
//     block's Instrs slice keeps its backing array across reuse.
//   - A FrontInstr is owned by its block until streamed, then by the
//     decode queue, then by the backend's ROB. It is released on
//     retirement, on an execute-time squash (both via ReleaseInstr),
//     or — if it never reached decode — by the frontend flush.
//   - Branch/Divergence point into the instruction's embedded storage,
//     so they are released with it; the frontend nils its pending
//     divergence pointer before the owning instruction can be reused.
//
// The pools are preallocated to the structural in-flight bound (FTQ ×
// instructions per block + decode queue + ROB), so steady state never
// grows them; the on-demand fallback exists only for configurations
// that exceed the hint.

type instrPool struct {
	free []*FrontInstr
}

func newInstrPool(n int) instrPool {
	slab := make([]FrontInstr, n)
	free := make([]*FrontInstr, n, n+16)
	for i := range slab {
		free[i] = &slab[i]
	}
	return instrPool{free: free}
}

// get returns an instruction whose header fields (everything but
// branchStorage, divStorage and nopStorage) are zero. The embedded
// storage keeps its last contents: it is read only through Branch,
// Divergence and Static, which get clears, and handleBranch, diverge
// and staticAt overwrite it whole before setting them. Clearing it too
// would zero 296 more bytes per fetched instruction.
func (p *instrPool) get() *FrontInstr {
	n := len(p.free)
	if n == 0 {
		return new(FrontInstr)
	}
	fi := p.free[n-1]
	p.free = p.free[:n-1]
	fi.Static = nil
	fi.OnPath = false
	fi.Oracle = isa.DynInstr{}
	fi.Branch = nil
	fi.Divergence = nil
	fi.FetchSeq = 0
	fi.OracleCursorAfter = 0
	return fi
}

func (p *instrPool) put(fi *FrontInstr) {
	if fi == nil {
		return
	}
	p.free = append(p.free, fi)
}

type blockPool struct {
	free []*FetchBlock
}

func newBlockPool(n int) blockPool {
	slab := make([]FetchBlock, n)
	free := make([]*FetchBlock, n, n+8)
	for i := range slab {
		slab[i].Instrs = make([]*FrontInstr, 0, isa.InstrPerBlock)
		free[i] = &slab[i]
	}
	return blockPool{free: free}
}

// get returns a zeroed block whose Instrs slice keeps its backing
// array.
func (p *blockPool) get() *FetchBlock {
	n := len(p.free)
	if n == 0 {
		return &FetchBlock{Instrs: make([]*FrontInstr, 0, isa.InstrPerBlock)}
	}
	fb := p.free[n-1]
	p.free = p.free[:n-1]
	*fb = FetchBlock{Instrs: fb.Instrs[:0]}
	return fb
}

func (p *blockPool) put(fb *FetchBlock) {
	if fb == nil {
		return
	}
	p.free = append(p.free, fb)
}

// ReleaseInstr returns an instruction to the frontend's pool once its
// last owner is done with it: the backend calls this on retirement and
// on execute-time squashes. Instructions that never reach the backend
// are released by the frontend's own flush path.
func (f *Frontend) ReleaseInstr(fi *FrontInstr) { f.instrs.put(fi) }

// releaseBlockInstrs releases a flushed block's not-yet-streamed
// instructions from index from onward, then the block itself.
// Instructions before from were handed to the decode queue or backend
// and are released by their current owner.
func (f *Frontend) releaseBlockInstrs(fb *FetchBlock, from int) {
	for i := from; i < len(fb.Instrs); i++ {
		f.instrs.put(fb.Instrs[i])
	}
	f.blocks.put(fb)
}
