// Package btb implements the branch target buffer and the indirect
// target buffer of the decoupled frontend. The BTB is the structure
// whose capacity misses put FDIP on the wrong path (Section II): when a
// taken branch is absent from the BTB, the frontend keeps walking
// sequentially through what it believes is one large basic block,
// emitting useless prefetches until post-fetch correction or execute
// resolution resteers it.
package btb

import (
	"math/bits"

	"udpsim/internal/isa"
)

// Entry is one BTB entry as seen by the frontend.
type Entry struct {
	Kind   isa.BranchKind
	Target isa.Addr
}

type way struct {
	tag    uint64
	valid  bool
	kind   isa.BranchKind
	target isa.Addr
	stamp  uint64
}

// Stats counts BTB events.
type Stats struct {
	Lookups uint64
	Hits    uint64
	Misses  uint64
	Inserts uint64
	Evicts  uint64
	// MissesTaken counts lookup misses for branches that were actually
	// taken — the dangerous kind that silently steers FDIP sequentially.
	MissesTaken uint64
}

// BTB is a set-associative branch target buffer indexed by branch PC.
type BTB struct {
	sets    [][]way
	setMask uint64
	setBits int // log2 of the set count: the tag is the index above it
	tagBits uint
	Stats   Stats
}

// Config sizes the BTB.
type Config struct {
	Entries int // total entries; must be ways * power-of-two sets
	Ways    int
	TagBits uint // partial tag width (Fagin-style); 0 = full tags
}

// New builds a BTB.
func New(cfg Config) *BTB {
	if cfg.Ways <= 0 || cfg.Entries <= 0 || cfg.Entries%cfg.Ways != 0 {
		panic("btb: entries must be a positive multiple of ways")
	}
	nsets := cfg.Entries / cfg.Ways
	if nsets&(nsets-1) != 0 {
		panic("btb: set count must be a power of two")
	}
	sets := make([][]way, nsets)
	backing := make([]way, nsets*cfg.Ways)
	for i := range sets {
		sets[i] = backing[i*cfg.Ways : (i+1)*cfg.Ways : (i+1)*cfg.Ways]
	}
	return &BTB{sets: sets, setMask: uint64(nsets - 1), setBits: bits.TrailingZeros(uint(nsets)), tagBits: cfg.TagBits}
}

func (b *BTB) index(pc isa.Addr) (uint64, uint64) {
	n := uint64(pc) >> 2 // instruction-granular
	set := n & b.setMask
	tag := n >> b.setBits
	if b.tagBits > 0 {
		tag &= 1<<b.tagBits - 1
	}
	return set, tag
}

// Lookup probes the BTB for a branch at pc. actuallyTakenBranch feeds
// the MissesTaken statistic and may be false when unknown.
func (b *BTB) Lookup(pc isa.Addr, cycle uint64) (Entry, bool) {
	b.Stats.Lookups++
	set, tag := b.index(pc)
	for i := range b.sets[set] {
		w := &b.sets[set][i]
		if w.valid && w.tag == tag {
			b.Stats.Hits++
			w.stamp = cycle
			return Entry{Kind: w.kind, Target: w.target}, true
		}
	}
	b.Stats.Misses++
	return Entry{}, false
}

// Probe is a stats-free presence check.
func (b *BTB) Probe(pc isa.Addr) bool {
	set, tag := b.index(pc)
	for i := range b.sets[set] {
		if b.sets[set][i].valid && b.sets[set][i].tag == tag {
			return true
		}
	}
	return false
}

// RecordTakenMiss bumps the taken-branch miss counter (called by the
// frontend once it learns a missed branch was taken).
func (b *BTB) RecordTakenMiss() { b.Stats.MissesTaken++ }

// ResetStats clears the accumulated statistics (end of warmup) while
// preserving the predictor contents.
func (b *BTB) ResetStats() { b.Stats = Stats{} }

// Insert installs or updates the entry for the branch at pc. The
// frontend calls this at resolution/decode time for branches that missed
// and for indirect branches whose target changed.
func (b *BTB) Insert(pc isa.Addr, kind isa.BranchKind, target isa.Addr, cycle uint64) {
	set, tag := b.index(pc)
	ways := b.sets[set]
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			ways[i].kind = kind
			ways[i].target = target
			ways[i].stamp = cycle
			return
		}
	}
	victim := -1
	for i := range ways {
		if !ways[i].valid {
			victim = i
			break
		}
	}
	if victim < 0 {
		victim = 0
		for i := 1; i < len(ways); i++ {
			if ways[i].stamp < ways[victim].stamp {
				victim = i
			}
		}
		b.Stats.Evicts++
	}
	ways[victim] = way{tag: tag, valid: true, kind: kind, target: target, stamp: cycle}
	b.Stats.Inserts++
}

// Entries returns total capacity.
func (b *BTB) Entries() int { return len(b.sets) * len(b.sets[0]) }

// HitRate returns hits/lookups.
func (s *Stats) HitRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Lookups)
}

// IndirectBTB predicts targets of indirect jumps and calls, indexed by
// branch PC hashed with path history (an ITTAGE-lite single table).
type IndirectBTB struct {
	entries []indirectEntry
	mask    uint64

	Lookups uint64
	Hits    uint64
}

type indirectEntry struct {
	tag    uint32
	target isa.Addr
	valid  bool
	conf   int8
}

// NewIndirect builds an indirect target buffer with n entries (power of
// two).
func NewIndirect(n int) *IndirectBTB {
	if n <= 0 || n&(n-1) != 0 {
		panic("btb: indirect BTB size must be a positive power of two")
	}
	return &IndirectBTB{entries: make([]indirectEntry, n), mask: uint64(n - 1)}
}

func (ib *IndirectBTB) index(pc isa.Addr, pathHist uint64) (uint64, uint32) {
	x := uint64(pc)>>2 ^ pathHist*0x9e3779b97f4a7c15
	x ^= x >> 23
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 31
	return x & ib.mask, uint32(x >> 40)
}

// Lookup predicts the target of the indirect branch at pc.
func (ib *IndirectBTB) Lookup(pc isa.Addr, pathHist uint64) (isa.Addr, bool) {
	ib.Lookups++
	i, tag := ib.index(pc, pathHist)
	e := &ib.entries[i]
	if e.valid && e.tag == tag {
		ib.Hits++
		return e.target, true
	}
	return 0, false
}

// Update trains the entry with the resolved target.
func (ib *IndirectBTB) Update(pc isa.Addr, pathHist uint64, target isa.Addr) {
	i, tag := ib.index(pc, pathHist)
	e := &ib.entries[i]
	if e.valid && e.tag == tag {
		if e.target == target {
			if e.conf < 3 {
				e.conf++
			}
			return
		}
		if e.conf > 0 {
			e.conf--
			return
		}
		e.target = target
		return
	}
	*e = indirectEntry{tag: tag, target: target, valid: true}
}
