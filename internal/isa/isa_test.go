package isa

import (
	"testing"
	"testing/quick"
	"unsafe"
)

func TestGeometryConstants(t *testing.T) {
	if LineBytes != 1<<LineShift {
		t.Errorf("LineShift inconsistent: %d vs %d", LineBytes, 1<<LineShift)
	}
	if FetchBlockBytes != 1<<FetchBlockShift {
		t.Errorf("FetchBlockShift inconsistent")
	}
	if LineBytes%FetchBlockBytes != 0 {
		t.Errorf("fetch blocks must tile cache lines")
	}
	if InstrPerBlock*InstrBytes != FetchBlockBytes {
		t.Errorf("InstrPerBlock inconsistent")
	}
}

func TestAddrAlignment(t *testing.T) {
	a := Addr(0x401237)
	if a.Line() != 0x401200 {
		t.Errorf("Line() = %v", a.Line())
	}
	if a.Block() != 0x401220 {
		t.Errorf("Block() = %v", a.Block())
	}
}

// Property: for any address, its block lies within its line, alignment
// is idempotent, and offsets are within bounds.
func TestAddrAlignmentProperties(t *testing.T) {
	f := func(x uint64) bool {
		a := Addr(x)
		if a.Line() > a || a.Block() > a {
			return false
		}
		if a.Block().Line() != a.Line() {
			return false
		}
		if a.Line().Line() != a.Line() || a.Block().Block() != a.Block() {
			return false
		}
		if a-a.Block() >= FetchBlockBytes || a-a.Line() >= LineBytes {
			return false
		}
		return a.LineIndex() == uint64(a)>>LineShift
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBranchKindPredicates(t *testing.T) {
	cases := []struct {
		k                         BranchKind
		cond, indirect            bool
		pushes, pops, alwaysTaken bool
	}{
		{BranchNone, false, false, false, false, false},
		{BranchCond, true, false, false, false, false},
		{BranchUncond, false, false, false, false, true},
		{BranchCall, false, false, true, false, true},
		{BranchReturn, false, true, false, true, true},
		{BranchIndirect, false, true, false, false, true},
		{BranchIndirectCall, false, true, true, false, true},
	}
	for _, c := range cases {
		if c.k.IsConditional() != c.cond {
			t.Errorf("%v.IsConditional() = %v", c.k, c.k.IsConditional())
		}
		if c.k.IsIndirect() != c.indirect {
			t.Errorf("%v.IsIndirect() = %v", c.k, c.k.IsIndirect())
		}
		if c.k.PushesRAS() != c.pushes {
			t.Errorf("%v.PushesRAS() = %v", c.k, c.k.PushesRAS())
		}
		if c.k.PopsRAS() != c.pops {
			t.Errorf("%v.PopsRAS() = %v", c.k, c.k.PopsRAS())
		}
		if c.k.AlwaysTaken() != c.alwaysTaken {
			t.Errorf("%v.AlwaysTaken() = %v", c.k, c.k.AlwaysTaken())
		}
	}
}

func TestKindAndClassStrings(t *testing.T) {
	for k := BranchNone; k < BranchKind(NumBranchKinds); k++ {
		if k.String() == "" {
			t.Errorf("empty string for kind %d", k)
		}
	}
	for c := ClassALU; c < Class(NumClasses); c++ {
		if c.String() == "" {
			t.Errorf("empty string for class %d", c)
		}
	}
	if Addr(0x400000).String() != "0x400000" {
		t.Errorf("Addr.String() = %s", Addr(0x400000).String())
	}
}

// mustInstr is NewStaticInstr for arguments that fit.
func mustInstr(t *testing.T, pc Addr, class Class, kind BranchKind, target, data Addr) *StaticInstr {
	t.Helper()
	si, err := NewStaticInstr(pc, class, kind, target, data)
	if err != nil {
		t.Fatal(err)
	}
	return &si
}

func TestDynInstrNextPC(t *testing.T) {
	si := mustInstr(t, 0x1000, ClassBranch, BranchCond, 0x2000, 0)
	taken := &DynInstr{Static: si, Taken: true, Target: 0x2000}
	if taken.NextPC() != 0x2000 {
		t.Errorf("taken NextPC = %v", taken.NextPC())
	}
	nt := &DynInstr{Static: si, Taken: false}
	if nt.NextPC() != 0x1004 {
		t.Errorf("not-taken NextPC = %v", nt.NextPC())
	}
	if taken.PC() != 0x1000 {
		t.Errorf("PC = %v", taken.PC())
	}

	alu := mustInstr(t, 0x1000, ClassALU, BranchNone, 0, 0)
	d := &DynInstr{Static: alu}
	if d.NextPC() != 0x1004 {
		t.Errorf("ALU NextPC = %v", d.NextPC())
	}
	if alu.IsBranch() {
		t.Error("ALU claims to be a branch")
	}
	if alu.FallThrough() != 0x1004 {
		t.Errorf("FallThrough = %v", alu.FallThrough())
	}
}

// TestStaticInstrOperand checks that the shared operand word reads back
// as the one operand it was given: Target is 0 on loads and stores,
// DataAddr is 0 on branches, and both are 0 on everything else. The
// largest address that fits round-trips.
func TestStaticInstrOperand(t *testing.T) {
	cases := []struct {
		class        Class
		kind         BranchKind
		target, data Addr
	}{
		{ClassLoad, BranchNone, 0, 0x2000_0008},
		{ClassStore, BranchNone, 0, MaxAddr},
		{ClassBranch, BranchCond, 0x40_0100, 0},
		{ClassBranch, BranchCall, MaxAddr, 0},
		{ClassBranch, BranchReturn, 0, 0},
		{ClassALU, BranchNone, 0, 0},
	}
	for _, c := range cases {
		si := mustInstr(t, MaxAddr-3, c.class, c.kind, c.target, c.data)
		if si.PC() != MaxAddr-3 || si.Class != c.class || si.Branch != c.kind {
			t.Errorf("%v/%v: pc %v, class %v, kind %v", c.class, c.kind, si.PC(), si.Class, si.Branch)
		}
		if si.Target() != c.target || si.DataAddr() != c.data {
			t.Errorf("%v/%v: Target() %v, DataAddr() %v, want %v and %v", c.class, c.kind, si.Target(), si.DataAddr(), c.target, c.data)
		}
	}
}

// TestNewStaticInstrRefuses checks that the constructor refuses what the
// 16-byte layout cannot hold: an address above 4 GiB, and a target and
// a data address on one instruction.
func TestNewStaticInstrRefuses(t *testing.T) {
	cases := []struct {
		name             string
		pc, target, data Addr
		want             error
	}{
		{"pc", MaxAddr + 1, 0, 0, errAddrRange},
		{"target", 0x1000, MaxAddr + 1, 0, errAddrRange},
		{"data", 0x1000, 0, 1 << 40, errAddrRange},
		{"both operands", 0x1000, 0x2000, 0x3000, errTwoOperands},
	}
	for _, c := range cases {
		if _, err := NewStaticInstr(c.pc, ClassBranch, BranchCond, c.target, c.data); err != c.want {
			t.Errorf("%s: pc %v, target %v, data %v: got error %v, want %v", c.name, c.pc, c.target, c.data, err, c.want)
		}
	}
}

// TestStaticInstrSize pins the image's per-instruction footprint: four
// 4-byte words (PC, the shared Target/DataAddr operand, Site, and
// Class+Branch with the operand's kind). A new field grows every
// generated and trace-decoded image by its size.
func TestStaticInstrSize(t *testing.T) {
	if got := unsafe.Sizeof(StaticInstr{}); got != 16 {
		t.Errorf("sizeof(StaticInstr) = %d, want 16", got)
	}
}
