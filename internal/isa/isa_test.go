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

func TestDynInstrNextPC(t *testing.T) {
	si := &StaticInstr{PC: 0x1000, Branch: BranchCond, Target: 0x2000}
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

	alu := &StaticInstr{PC: 0x1000, Class: ClassALU}
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

// TestStaticInstrSize pins the image's per-instruction footprint: four
// 8-byte words (PC, Target, DataAddr, and Class+Branch padded). A new
// field grows every generated and trace-decoded image by its size.
func TestStaticInstrSize(t *testing.T) {
	if got := unsafe.Sizeof(StaticInstr{}); got != 32 {
		t.Errorf("sizeof(StaticInstr) = %d, want 32", got)
	}
}
