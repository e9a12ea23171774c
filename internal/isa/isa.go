// Package isa defines the instruction-set-level vocabulary shared by the
// whole simulator: addresses, cache-line and fetch-block geometry,
// instruction classes, and branch kinds.
//
// The simulator is ISA-agnostic in the same way Scarab's uop layer is: it
// models instruction *addresses* and *classes* (ALU, load, store, branch
// flavors), which is all the frontend, caches, and the UDP/UFTQ
// mechanisms observe.
package isa

import (
	"errors"
	"fmt"
)

// Addr is a byte address in the simulated address space.
type Addr uint64

// Geometry constants of the simulated machine. These mirror Table II of
// the paper: 64-byte cache lines and 32-byte fetch blocks.
const (
	// LineBytes is the size of a cache line.
	LineBytes = 64
	// LineShift is log2(LineBytes).
	LineShift = 6
	// FetchBlockBytes is the size of an aligned fetch block examined by
	// the decoupled frontend per BTB lookup.
	FetchBlockBytes = 32
	// FetchBlockShift is log2(FetchBlockBytes).
	FetchBlockShift = 5
	// InstrBytes is the (fixed) size of one simulated instruction. Real
	// x86 is variable length; Scarab's trace frontend also operates on
	// decoded instruction boundaries. A fixed 4-byte encoding preserves
	// instructions-per-block and footprint geometry.
	InstrBytes = 4
	// InstrPerBlock is the number of instructions in one fetch block.
	InstrPerBlock = FetchBlockBytes / InstrBytes
	// InstrPerLine is the number of instructions in one cache line.
	InstrPerLine = LineBytes / InstrBytes
)

// Line returns the cache-line address (aligned) containing a.
func (a Addr) Line() Addr { return a &^ (LineBytes - 1) }

// LineIndex returns the cache-line number containing a.
func (a Addr) LineIndex() uint64 { return uint64(a) >> LineShift }

// Block returns the fetch-block address (aligned) containing a.
func (a Addr) Block() Addr { return a &^ (FetchBlockBytes - 1) }

func (a Addr) String() string { return fmt.Sprintf("0x%x", uint64(a)) }

// Class is the coarse instruction class used by the backend's functional
// unit model.
type Class uint8

// Instruction classes.
const (
	ClassALU Class = iota // integer/fp computation, 1-cycle ALU op
	ClassMul              // longer-latency computation (mul/div)
	ClassLoad
	ClassStore
	ClassBranch // any control-flow instruction; see BranchKind
	ClassNop
	numClasses
)

// NumClasses is the number of distinct instruction classes.
const NumClasses = int(numClasses)

func (c Class) String() string {
	switch c {
	case ClassALU:
		return "alu"
	case ClassMul:
		return "mul"
	case ClassLoad:
		return "load"
	case ClassStore:
		return "store"
	case ClassBranch:
		return "branch"
	case ClassNop:
		return "nop"
	default:
		return fmt.Sprintf("class(%d)", uint8(c))
	}
}

// BranchKind distinguishes control-flow instruction flavors. The
// frontend's BTB and predictor treat these differently: conditional
// branches consult the direction predictor, returns consult the RAS,
// indirect branches/calls consult the indirect target buffer.
type BranchKind uint8

// Branch kinds.
const (
	BranchNone         BranchKind = iota // not a branch
	BranchCond                           // conditional direct branch
	BranchUncond                         // unconditional direct jump
	BranchCall                           // direct call (pushes RAS)
	BranchReturn                         // return (pops RAS)
	BranchIndirect                       // indirect jump
	BranchIndirectCall                   // indirect call (pushes RAS)
	numBranchKinds
)

// NumBranchKinds is the number of distinct branch kinds.
const NumBranchKinds = int(numBranchKinds)

func (k BranchKind) String() string {
	switch k {
	case BranchNone:
		return "none"
	case BranchCond:
		return "cond"
	case BranchUncond:
		return "jump"
	case BranchCall:
		return "call"
	case BranchReturn:
		return "ret"
	case BranchIndirect:
		return "ijump"
	case BranchIndirectCall:
		return "icall"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// IsConditional reports whether the branch consults the direction
// predictor.
func (k BranchKind) IsConditional() bool { return k == BranchCond }

// IsIndirect reports whether the target comes from the indirect target
// buffer (or RAS for returns).
func (k BranchKind) IsIndirect() bool {
	return k == BranchIndirect || k == BranchIndirectCall || k == BranchReturn
}

// PushesRAS reports whether executing the branch pushes a return address.
func (k BranchKind) PushesRAS() bool { return k == BranchCall || k == BranchIndirectCall }

// PopsRAS reports whether the branch target is predicted from the RAS.
func (k BranchKind) PopsRAS() bool { return k == BranchReturn }

// AlwaysTaken reports whether the branch unconditionally redirects fetch.
func (k BranchKind) AlwaysTaken() bool {
	return k == BranchUncond || k == BranchCall || k == BranchReturn ||
		k == BranchIndirect || k == BranchIndirectCall
}

// MaxAddr is the highest address a StaticInstr holds. Every address a
// program image names fits in 32 bits: generated code sits just above
// 4 MiB and its data regions below 1 GiB (workload.Profile.Validate
// bounds them), and a trace image that names a higher address fails to
// decode.
const MaxAddr Addr = 1<<32 - 1

// StaticInstr is one instruction of the static program image, packed
// into 16 bytes: an image holds one per instruction of a multi-megabyte
// footprint, so its size is most of a run's live heap. Build one with
// NewStaticInstr.
type StaticInstr struct {
	pc uint32
	// operand is the instruction's one address operand, which op names:
	// a branch's Target or a load or store's DataAddr. No instruction
	// has both, so they share the word.
	operand uint32
	// Site is 1 + the dense index of the generating program's behaviour
	// metadata for this branch (its conditional table for BranchCond,
	// its indirect table for the indirect kinds), or 0 when it has none:
	// every other instruction, and every image decoded from a trace.
	// Only the executor reads it.
	Site uint32
	instrKind
}

// instrKind holds StaticInstr's three one-byte fields. Grouping them
// gives StaticInstr four fields, few enough for the compiler to keep a
// StaticInstr in registers: NewStaticInstr then returns one without
// storing its bytes one by one and reloading them as a block, a
// store-forwarding stall that took a quarter of image generation's time.
type instrKind struct {
	Class  Class
	Branch BranchKind
	op     operandKind
}

// operandKind names what StaticInstr.operand holds.
type operandKind uint8

const (
	operandNone operandKind = iota
	operandTarget
	operandData
)

// The errors NewStaticInstr returns: preallocated, so that it stays
// small enough to inline.
var (
	errAddrRange   = errors.New("isa: address above 4 GiB")
	errTwoOperands = errors.New("isa: instruction with both a target and a data address")
)

// NewStaticInstr builds the instruction at pc. Target is the taken
// target of a direct branch, or the most common target of an indirect
// one (the image generator records the alternates with the executor's
// metadata); data is a load's or store's representative data address,
// which the executor perturbs per dynamic instance. Zero means "none"
// for both. It refuses an address above MaxAddr and an instruction
// with both a target and a data address.
func NewStaticInstr(pc Addr, class Class, kind BranchKind, target, data Addr) (StaticInstr, error) {
	if pc|target|data > MaxAddr {
		return StaticInstr{}, errAddrRange
	}
	if min(target, data) != 0 {
		return StaticInstr{}, errTwoOperands
	}
	// At most one operand is nonzero, so their OR is that operand, and
	// its kind is operandTarget (1), operandData (2) or operandNone (0).
	op := operandKind(min(target, 1) + 2*min(data, 1))
	return StaticInstr{pc: uint32(pc), operand: uint32(target | data), instrKind: instrKind{class, kind, op}}, nil
}

// PC returns the instruction's address.
func (si *StaticInstr) PC() Addr { return Addr(si.pc) }

// Target returns the branch target NewStaticInstr was given, or 0 when
// it was given none (every load, store and other non-branch).
func (si *StaticInstr) Target() Addr {
	if si.op != operandTarget {
		return 0
	}
	return Addr(si.operand)
}

// DataAddr returns the data address NewStaticInstr was given, or 0
// when it was given none (every branch and non-memory op).
func (si *StaticInstr) DataAddr() Addr {
	if si.op != operandData {
		return 0
	}
	return Addr(si.operand)
}

// IsBranch reports whether the instruction is any control-flow kind.
func (si *StaticInstr) IsBranch() bool { return si.Branch != BranchNone }

// FallThrough returns the address of the next sequential instruction,
// PC+InstrBytes. It is derived rather than stored: the field would cost
// every image a quarter of its bytes for one add on the read.
func (si *StaticInstr) FallThrough() Addr { return si.PC() + InstrBytes }

// DynInstr is one dynamically executed instruction: a static instruction
// plus its resolved outcome. The workload executor produces the on-path
// (oracle) stream of DynInstrs; the backend compares frontend-supplied
// instructions against it to detect mispredictions.
type DynInstr struct {
	Static *StaticInstr
	// Taken is the resolved direction (always true for unconditional
	// control flow, meaningless for non-branches).
	Taken bool
	// Target is the resolved next PC (fall-through when not taken).
	Target Addr
	// DataAddr is the resolved memory address for loads and stores.
	DataAddr Addr
	// Seq is the dynamic sequence number within the run (1-based).
	Seq uint64
}

// PC returns the instruction's program counter.
func (d *DynInstr) PC() Addr { return d.Static.PC() }

// NextPC returns the architecturally correct next program counter.
func (d *DynInstr) NextPC() Addr {
	if d.Static.Branch != BranchNone && d.Taken {
		return d.Target
	}
	return d.Static.FallThrough()
}
