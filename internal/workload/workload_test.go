package workload

import (
	"math"
	"testing"
	"testing/quick"

	"udpsim/internal/isa"
)

func tinyProfile() Profile {
	p := MustByName("mysql")
	p.Funcs = 40
	p.DispatchTargets = 30
	return p
}

func TestAllProfilesValidate(t *testing.T) {
	for _, p := range All() {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
	if len(All()) != 10 || len(Names) != 10 {
		t.Errorf("expected the paper's 10 applications")
	}
}

func TestByName(t *testing.T) {
	for _, name := range Names {
		p, ok := ByName(name)
		if !ok || p.Name != name {
			t.Errorf("ByName(%q) = (%v, %v)", name, p.Name, ok)
		}
	}
	if _, ok := ByName("nginx"); ok {
		t.Error("unknown workload resolved")
	}
}

func TestMustByNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	MustByName("nope")
}

func TestValidateRejectsBadProfiles(t *testing.T) {
	mk := func(mut func(*Profile)) Profile {
		p := tinyProfile()
		mut(&p)
		return p
	}
	bad := []Profile{
		mk(func(p *Profile) { p.Funcs = 0 }),
		mk(func(p *Profile) { p.StmtsPerFunc = [2]int{0, 5} }),
		mk(func(p *Profile) { p.StmtsPerFunc = [2]int{5, 2} }),
		mk(func(p *Profile) { p.BBLInstrs = [2]int{0, 4} }),
		mk(func(p *Profile) { p.WStraight, p.WDiamond, p.WLoop, p.WCall, p.WSwitch = 0, 0, 0, 0, 0 }),
		mk(func(p *Profile) { p.FracBiased, p.FracPeriodic = 0.8, 0.5 }),
		mk(func(p *Profile) { p.DispatchTargets = p.Funcs + 1 }),
		mk(func(p *Profile) { p.LoopTrip = [2]int{0, 4} }),
		mk(func(p *Profile) { p.SwitchTargets = [2]int{1, 4} }),
		mk(func(p *Profile) { p.DataRegionBytes = MaxDataRegionBytes + 1 }),
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad profile %d accepted", i)
		}
		if _, err := Generate(p); err == nil {
			t.Errorf("Generate accepted bad profile %d", i)
		}
	}
}

// TestDataRegionBound checks that the largest random region Validate
// accepts keeps every static data address below the executor's stream
// region at 0x3000_0000.
func TestDataRegionBound(t *testing.T) {
	p := tinyProfile()
	p.DataRandFrac = 1
	p.DataRegionBytes = MaxDataRegionBytes
	prog, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range prog.StaticCode() {
		si := &prog.StaticCode()[i]
		if a := si.DataAddr(); si.Class == isa.ClassLoad && (a < 0x2000_0000 || a >= 0x3000_0000) {
			t.Fatalf("load at %v reads %v, outside the random region", si.PC(), a)
		}
	}
}

func TestGenerationDeterminism(t *testing.T) {
	p := tinyProfile()
	a := MustGenerate(p)
	b := MustGenerate(p)
	if a.Size() != b.Size() || a.Entry() != b.Entry() {
		t.Fatalf("non-deterministic image: %d/%v vs %d/%v", a.Size(), a.Entry(), b.Size(), b.Entry())
	}
	for i := 0; i < a.Size(); i++ {
		pc := ImageBase + isa.Addr(i*isa.InstrBytes)
		ia, ib := a.InstrAt(pc), b.InstrAt(pc)
		if *ia != *ib {
			t.Fatalf("instruction %d differs: %+v vs %+v", i, ia, ib)
		}
	}
}

func TestImageStructure(t *testing.T) {
	prog := MustGenerate(tinyProfile())
	if prog.Size() == 0 {
		t.Fatal("empty image")
	}
	if prog.NumCond == 0 || prog.NumIndirect == 0 || prog.NumCalls == 0 {
		t.Errorf("missing control flow: %s", prog)
	}
	if len(prog.FuncEntries) != 40 {
		t.Errorf("FuncEntries = %d", len(prog.FuncEntries))
	}
	// Every branch's metadata must be resolvable and every direct
	// branch target must be inside the image.
	for i := 0; i < prog.Size(); i++ {
		si := prog.InstrAt(ImageBase + isa.Addr(i*isa.InstrBytes))
		switch si.Branch {
		case isa.BranchCond:
			if prog.CondMetaAt(si.PC()) == nil {
				t.Fatalf("cond at %v has no behaviour metadata", si.PC())
			}
			if !prog.InImage(si.Target()) {
				t.Fatalf("cond target %v outside image", si.Target())
			}
		case isa.BranchUncond, isa.BranchCall:
			if !prog.InImage(si.Target()) {
				t.Fatalf("%v target %v outside image", si.Branch, si.Target())
			}
		case isa.BranchIndirect, isa.BranchIndirectCall:
			m := prog.IndirectMetaAt(si.PC())
			if m == nil || len(m.Targets) == 0 {
				t.Fatalf("indirect at %v has no targets", si.PC())
			}
			for _, tg := range m.Targets {
				if !prog.InImage(tg) {
					t.Fatalf("indirect target %v outside image", tg)
				}
			}
			if len(m.Cum) != len(m.Targets) {
				t.Fatalf("cumulative table mismatch at %v", si.PC())
			}
		}
	}
}

func TestInstrAtOffImage(t *testing.T) {
	prog := MustGenerate(tinyProfile())
	end := ImageBase + isa.Addr(prog.Size()*isa.InstrBytes)
	si := prog.InstrAt(end + 0x100)
	if si.Class != isa.ClassNop || si.IsBranch() {
		t.Errorf("off-image instr = %+v", si)
	}
	if si.FallThrough() != end+0x104 {
		t.Errorf("off-image fallthrough = %v", si.FallThrough())
	}
	if prog.InImage(end) || prog.InImage(0) || prog.InImage(ImageBase+1) {
		t.Error("InImage accepts out-of-image or misaligned addresses")
	}
	if !prog.InImage(ImageBase) {
		t.Error("InImage rejects the image base")
	}
}

func TestExecutorDeterminism(t *testing.T) {
	prog := MustGenerate(tinyProfile())
	a, b := NewExecutor(prog, 7), NewExecutor(prog, 7)
	for i := 0; i < 20_000; i++ {
		da, db := a.Next(), b.Next()
		if da.PC() != db.PC() || da.Taken != db.Taken || da.Target != db.Target || da.DataAddr != db.DataAddr {
			t.Fatalf("divergence at %d: %+v vs %+v", i, da, db)
		}
	}
}

func TestExecutorSaltsDiffer(t *testing.T) {
	prog := MustGenerate(tinyProfile())
	a, b := NewExecutor(prog, 1), NewExecutor(prog, 2)
	same := 0
	const n = 10_000
	for i := 0; i < n; i++ {
		da, db := a.Next(), b.Next()
		if da.PC() == db.PC() {
			same++
		}
	}
	if same == n {
		t.Error("different salts produced identical streams")
	}
}

// TestExecutorControlFlowLegal checks the fundamental architectural
// invariant: every instruction's resolved next PC is either its
// fall-through or a legal target for its kind.
func TestExecutorControlFlowLegal(t *testing.T) {
	prog := MustGenerate(tinyProfile())
	e := NewExecutor(prog, 0)
	prev := isa.DynInstr{}
	for i := 0; i < 50_000; i++ {
		d := e.Next()
		if i > 0 && prev.NextPC() != d.PC() {
			t.Fatalf("instr %d at %v does not follow %v (next %v)",
				i, d.PC(), prev.PC(), prev.NextPC())
		}
		si := d.Static
		switch {
		case si.Branch == isa.BranchNone:
			if d.Target != si.FallThrough() {
				t.Fatalf("non-branch at %v jumped to %v", si.PC(), d.Target)
			}
		case si.Branch == isa.BranchCond:
			if d.Taken && d.Target != si.Target() {
				t.Fatalf("taken cond at %v went to %v, want %v", si.PC(), d.Target, si.Target())
			}
			if !d.Taken && d.Target != si.FallThrough() {
				t.Fatalf("not-taken cond at %v went to %v", si.PC(), d.Target)
			}
		case si.Branch.AlwaysTaken():
			if !d.Taken {
				t.Fatalf("%v at %v resolved not-taken", si.Branch, si.PC())
			}
		}
		prev = d
	}
}

// TestCallReturnMatching: returns always target the instruction after
// the matching call.
func TestCallReturnMatching(t *testing.T) {
	prog := MustGenerate(tinyProfile())
	e := NewExecutor(prog, 3)
	var stack []isa.Addr
	for i := 0; i < 50_000; i++ {
		d := e.Next()
		switch d.Static.Branch {
		case isa.BranchCall, isa.BranchIndirectCall:
			stack = append(stack, d.Static.FallThrough())
		case isa.BranchReturn:
			if len(stack) == 0 {
				continue // dispatcher-level return (never happens by construction)
			}
			want := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if d.Target != want {
				t.Fatalf("return at %v went to %v, want %v", d.PC(), d.Target, want)
			}
		}
	}
}

// TestLoopTripCounts: a fixed-trip loop back-edge is taken exactly
// trip-1 times between not-taken outcomes.
func TestLoopTripCounts(t *testing.T) {
	p := tinyProfile()
	p.LoopTripVariable = false
	prog := MustGenerate(p)
	e := NewExecutor(prog, 0)
	runLen := map[isa.Addr]uint32{}
	expected := map[isa.Addr]uint32{}
	checked := 0
	for i := 0; i < 200_000 && checked < 50; i++ {
		d := e.Next()
		m := prog.CondMetaAt(d.PC())
		if m == nil || m.Behavior != CondLoop {
			continue
		}
		if d.Taken {
			runLen[d.PC()]++
			continue
		}
		// Exit: total iterations = taken run + 1.
		got := runLen[d.PC()] + 1
		if want, ok := expected[d.PC()]; ok {
			if got != want {
				t.Fatalf("loop at %v ran %d iterations, earlier %d (trip %d)",
					d.PC(), got, want, m.Trip)
			}
			checked++
		} else {
			expected[d.PC()] = got
		}
		runLen[d.PC()] = 0
	}
	if checked == 0 {
		t.Skip("no loop completed twice in the window")
	}
}

func TestBiasedBranchFrequencies(t *testing.T) {
	p := tinyProfile()
	prog := MustGenerate(p)
	e := NewExecutor(prog, 0)
	taken := map[isa.Addr]int{}
	total := map[isa.Addr]int{}
	for i := 0; i < 300_000; i++ {
		d := e.Next()
		m := prog.CondMetaAt(d.PC())
		if m == nil || m.Behavior != CondBiased {
			continue
		}
		total[d.PC()]++
		if d.Taken {
			taken[d.PC()]++
		}
	}
	for pc, n := range total {
		if n < 200 {
			continue
		}
		m := prog.CondMetaAt(pc)
		rate := float64(taken[pc]) / float64(n)
		if rate < m.PTaken-0.12 || rate > m.PTaken+0.12 {
			t.Errorf("biased branch at %v: rate %.2f vs PTaken %.2f (n=%d)", pc, rate, m.PTaken, n)
		}
	}
}

func TestPhaseRotationChangesHotSet(t *testing.T) {
	p := tinyProfile()
	p.PhaseLen = 20_000
	prog := MustGenerate(p)
	e := NewExecutor(prog, 0)
	countTargets := func(n int) map[isa.Addr]int {
		m := map[isa.Addr]int{}
		for i := 0; i < n; i++ {
			d := e.Next()
			if d.PC() == prog.DispatchPC() {
				m[d.Target]++
			}
		}
		return m
	}
	before := countTargets(20_000)
	e.Skip(20_000) // advance a full phase
	after := countTargets(20_000)
	top := func(m map[isa.Addr]int) isa.Addr {
		var best isa.Addr
		for k, v := range m {
			if v > m[best] {
				best = k
			}
		}
		return best
	}
	if top(before) == top(after) {
		t.Error("hot dispatcher target unchanged across phases")
	}
}

func TestSequentialDispatchRoundRobin(t *testing.T) {
	p := tinyProfile()
	p.DispatchSequential = true
	prog := MustGenerate(p)
	e := NewExecutor(prog, 0)
	meta := prog.IndirectMetaAt(prog.DispatchPC())
	var seen []isa.Addr
	for i := 0; i < 500_000 && len(seen) < 2*len(meta.Targets); i++ {
		d := e.Next()
		if d.PC() == prog.DispatchPC() {
			seen = append(seen, d.Target)
		}
	}
	if len(seen) < 2*len(meta.Targets) {
		t.Fatalf("only %d dispatches observed", len(seen))
	}
	for i, tg := range seen {
		if tg != meta.Targets[i%len(meta.Targets)] {
			t.Fatalf("dispatch %d went to %v, want round-robin %v", i, tg, meta.Targets[i%len(meta.Targets)])
		}
	}
}

// Property: zipfWeights is a valid, monotone cumulative distribution.
func TestZipfWeightsProperty(t *testing.T) {
	f := func(n uint8, skew uint8) bool {
		nn := int(n%200) + 1
		s := float64(skew%30) / 10.0
		w := zipfWeights(nn, s, newRNG(1))
		prev := 0.0
		for _, c := range w {
			if c < prev-1e-12 {
				return false
			}
			prev = c
		}
		return prev > 0.999 && prev < 1.001
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFootprintScalesWithFuncs(t *testing.T) {
	small := tinyProfile()
	big := tinyProfile()
	big.Funcs = 160
	big.DispatchTargets = 120
	a, b := MustGenerate(small), MustGenerate(big)
	if b.FootprintBytes() < 2*a.FootprintBytes() {
		t.Errorf("footprint did not scale: %d vs %d", a.FootprintBytes(), b.FootprintBytes())
	}
}

func TestCondBehaviorStrings(t *testing.T) {
	for _, b := range []CondBehavior{CondBiased, CondPeriodic, CondIID, CondLoop, CondBehavior(9)} {
		if b.String() == "" {
			t.Errorf("empty string for %d", b)
		}
	}
}

// TestExecutorNeverTrapped guards against multiplicative loop nesting:
// every application's executor must keep returning to the dispatcher
// even deep into the run (regression: gcc once disappeared into a
// nested loop for millions of instructions).
func TestExecutorNeverTrapped(t *testing.T) {
	if testing.Short() {
		t.Skip("long scan")
	}
	for _, p := range All() {
		prog := MustGenerate(p)
		e := NewExecutor(prog, 0)
		e.Skip(2_000_000)
		dispatches := 0
		for i := 0; i < 200_000; i++ {
			if d := e.Next(); d.PC() == prog.DispatchPC() {
				dispatches++
			}
		}
		if dispatches == 0 {
			t.Errorf("%s: executor trapped after 2M instructions", p.Name)
		}
	}
}

// TestPadNop checks the nop an out-of-image walk reads: at its own PC,
// and with PC 0 past isa.MaxAddr, which a wrong-path walk from a
// crafted trace's target can reach.
func TestPadNop(t *testing.T) {
	for _, c := range []struct{ pc, want isa.Addr }{
		{ImageBase - isa.InstrBytes, ImageBase - isa.InstrBytes},
		{isa.MaxAddr - 3, isa.MaxAddr - 3},
		{isa.MaxAddr + 1, 0},
	} {
		n := PadNop(c.pc)
		if n.Class != isa.ClassNop || n.IsBranch() || n.PC() != c.want || n.Target() != 0 || n.DataAddr() != 0 {
			t.Errorf("PadNop(%v) = %+v, want a nop at %v", c.pc, n, c.want)
		}
	}
}

// TestBelow checks that below's integer threshold decides exactly as
// rng.float's comparison would, for fractions at and around the edges
// and draws on both sides of each threshold.
func TestBelow(t *testing.T) {
	fracs := []float64{math.NaN(), math.Inf(-1), -0.1, 0, 1e-300, 0x1p-53, 0.05, 0.25 + 0.1,
		0.25 + 0.1 + 0.05, 1 - 0x1p-53, 1, 1.5, math.Inf(1)}
	for _, f := range fracs {
		th := below(f)
		for _, u := range []uint64{0, 1, th - 1, th, th + 1, 1<<53 - 1} {
			if u >= 1<<53 {
				continue
			}
			if got, want := u < th, float64(u)/float64(1<<53) < f; got != want {
				t.Errorf("f=%v u=%d: below says %v, float says %v", f, u, got, want)
			}
		}
	}
}
