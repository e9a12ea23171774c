package frontend

import (
	"reflect"
	"testing"

	"udpsim/internal/isa"
)

// TestInstrPoolGetClearsHeader pins what instrPool.get clears: every
// FrontInstr field but the embedded branch, divergence and nop
// storage. A new field fails the count below until get clears it (or
// the comment on get says why it need not).
func TestInstrPoolGetClearsHeader(t *testing.T) {
	const fields = 10
	typ := reflect.TypeOf(FrontInstr{})
	if typ.NumField() != fields {
		t.Fatalf("FrontInstr has %d fields, this test knows %d: update instrPool.get and this test", typ.NumField(), fields)
	}
	alu, err := isa.NewStaticInstr(0x40, isa.ClassALU, isa.BranchNone, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	si := &alu
	p := newInstrPool(1)
	fi := p.get()
	*fi = FrontInstr{Static: si, OnPath: true, Oracle: isa.DynInstr{Static: si, Taken: true, Seq: 7},
		FetchSeq: 9, OracleCursorAfter: 8}
	fi.branchStorage = PredictedBranch{PC: 0x40}
	fi.Branch = &fi.branchStorage
	fi.divStorage = Divergence{RecoverPC: 0x80}
	fi.Divergence = &fi.divStorage
	p.put(fi)

	got := p.get()
	if got != fi {
		t.Fatal("pool did not hand back the released instruction")
	}
	v := reflect.ValueOf(got).Elem()
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if name == "branchStorage" || name == "divStorage" || name == "nopStorage" {
			continue
		}
		if !v.Field(i).IsZero() {
			t.Errorf("get left %s set", name)
		}
	}
}
