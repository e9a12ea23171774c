package trace

import (
	"io"
	"strings"
	"testing"

	"udpsim/internal/isa"
	"udpsim/internal/workload"
)

// sliceReader serves a fixed record slice through the RecordReader
// protocol.
type sliceReader struct {
	recs []Record
	i    int
}

func (r *sliceReader) Read() (Record, error) {
	if r.i >= len(r.recs) {
		return Record{}, io.EOF
	}
	rec := r.recs[r.i]
	r.i++
	return rec, nil
}

// fixtureProgram hand-builds a 16-instruction image (two fetch blocks,
// one cache line): an ALU/load/store/branch block and an all-ALU tail.
func fixtureProgram(t testing.TB) *workload.Program {
	t.Helper()
	classes := []struct {
		c isa.Class
		b isa.BranchKind
	}{
		{isa.ClassALU, isa.BranchNone},
		{isa.ClassLoad, isa.BranchNone},
		{isa.ClassStore, isa.BranchNone},
		{isa.ClassBranch, isa.BranchCond},
		{isa.ClassALU, isa.BranchNone},
		{isa.ClassBranch, isa.BranchUncond},
		{isa.ClassNop, isa.BranchNone},
		{isa.ClassALU, isa.BranchNone},
	}
	code := make([]isa.StaticInstr, 16)
	for i := range code {
		pc := workload.ImageBase + isa.Addr(i*isa.InstrBytes)
		code[i] = isa.StaticInstr{PC: pc, Class: isa.ClassALU}
		if i < len(classes) {
			code[i].Class = classes[i].c
			code[i].Branch = classes[i].b
			if classes[i].b != isa.BranchNone {
				code[i].Target = workload.ImageBase
			}
			if classes[i].c == isa.ClassLoad || classes[i].c == isa.ClassStore {
				code[i].DataAddr = 0x10000
			}
		}
	}
	prog, err := workload.NewProgramFromImage(workload.Profile{Name: "fixture"}, workload.ImageBase, code)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func TestInspectReport(t *testing.T) {
	base := workload.ImageBase
	at := func(i int) isa.Addr { return base + isa.Addr(i*isa.InstrBytes) }
	// One loop iteration taken, one falling through to the second
	// block: 12 instructions, 3 branches (2 cond + 1 jump), 2 taken.
	loop := []Record{
		{PC: at(0), Target: at(1)},
		{PC: at(1), Target: at(2), DataAddr: 0x10000},
		{PC: at(2), Target: at(3), DataAddr: 0x10000},
		{PC: at(3), Target: at(0), Taken: true},
		{PC: at(0), Target: at(1)},
		{PC: at(1), Target: at(2), DataAddr: 0x10000},
		{PC: at(2), Target: at(3), DataAddr: 0x10000},
		{PC: at(3), Target: at(4)},
		{PC: at(4), Target: at(5)},
		{PC: at(5), Target: at(8), Taken: true},
		{PC: at(8), Target: at(9)},
		{PC: at(9), Target: at(10)},
	}
	for _, tc := range []struct {
		name string
		recs []Record
		top  int
		want []string
	}{
		{
			name: "loop",
			recs: loop,
			top:  2,
			want: []string{
				"workload      fixture",
				"instructions  12",
				"branches      3 (25.0% of instrs)",
				"cond        2 (66.7% of branches)",
				"jump        1 (33.3% of branches)",
				"taken rate    0.667 of branches, 0.167 of instrs",
				"loads         2 (16.7%)",
				"stores        2 (16.7%)",
				"footprint     0 KiB (1 lines, 2 fetch blocks)",
				"hot blocks    top 2 of 2",
				"#1          0x400000  10 instrs (83.33%)",
				"#2          0x400020  2 instrs (16.67%)",
			},
		},
		{
			name: "no-hot-blocks-section",
			recs: loop[:4],
			top:  0,
			want: []string{
				"instructions  4",
				"branches      1 (25.0% of instrs)",
				"taken rate    1.000 of branches, 0.250 of instrs",
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog := fixtureProgram(t)
			st, err := Analyze(prog, &sliceReader{recs: tc.recs})
			if err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			if err := InspectReport(&b, "fixture", prog, &st, tc.top); err != nil {
				t.Fatal(err)
			}
			out := b.String()
			for _, w := range tc.want {
				if !strings.Contains(out, w) {
					t.Errorf("report missing %q; got:\n%s", w, out)
				}
			}
			if tc.top == 0 && strings.Contains(out, "hot blocks") {
				t.Errorf("top=0 report still lists hot blocks:\n%s", out)
			}
		})
	}
}

func TestHotBlocksOrdering(t *testing.T) {
	s := Stats{blockCounts: map[isa.Addr]uint64{
		0x400040: 5, 0x400000: 9, 0x400020: 5, 0x400060: 1,
	}}
	got := s.HotBlocks(3)
	want := []BlockCount{{0x400000, 9}, {0x400020, 5}, {0x400040, 5}}
	if len(got) != len(want) {
		t.Fatalf("HotBlocks = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("HotBlocks[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}
