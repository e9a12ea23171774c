package workload

import (
	"fmt"

	"udpsim/internal/isa"
)

// ImageBase is where generated code is laid out. Nonzero so address 0
// can mean "invalid" throughout the simulator.
const ImageBase isa.Addr = 0x400000

// CondMeta describes the dynamic behaviour of one static conditional
// branch; the executor consults it, the frontend never sees it.
type CondMeta struct {
	Behavior CondBehavior
	// Idx is the dense site index of this conditional (0..CondSites-1),
	// assigned at generation. The executor keeps its per-site dynamic
	// state (periodic instance counters, live loop iterations) in flat
	// slices indexed by Idx so the oracle stream never allocates.
	Idx int
	// PTaken is the taken probability for CondBiased / CondIID.
	PTaken float64
	// Period and PatternBits define CondPeriodic: instance i is taken
	// iff bit (i mod Period) of PatternBits is set.
	Period      uint32
	PatternBits uint64
	// Trip is the loop trip count for CondLoop (taken Trip times, then
	// not-taken once). TripJitter > 0 makes the per-entry trip uniform
	// in [Trip-TripJitter, Trip+TripJitter].
	Trip       uint32
	TripJitter uint32
}

// IndirectMeta describes an indirect branch's dynamic target set.
type IndirectMeta struct {
	Targets []isa.Addr
	// Cum is the cumulative probability over Targets (Zipf-skewed).
	Cum []float64
}

// Program is a generated static program image plus the behaviour
// metadata the executor needs.
type Program struct {
	profile Profile
	code    []isa.StaticInstr
	entry   isa.Addr

	// condTab and indirectTab hold every site's metadata in site order;
	// StaticInstr.Site indexes them, so the executor finds a branch's
	// behaviour without hashing its PC. conds and indirects key the same
	// entries by PC for lookups from outside the image walk.
	condTab     []CondMeta
	indirectTab []IndirectMeta
	conds       map[isa.Addr]*CondMeta
	indirects   map[isa.Addr]*IndirectMeta

	// FuncEntries holds every generated function's entry address;
	// FuncEntries[0] is the dispatcher targets' table order.
	FuncEntries []isa.Addr

	// dispatcher bookkeeping for phase rotation
	dispatchPC isa.Addr

	// Static statistics.
	NumCond     int
	NumIndirect int
	NumCalls    int
}

// builder lays out a program image; Generate runs it twice.
type builder struct {
	prog *Program
	r    *rng
	p    *Profile
	// sizing marks the counting pass: nothing is stored, only n, the
	// static counts and FuncEntries advance.
	sizing bool
	// n is the number of instructions emitted so far.
	n      int
	levels []int
	depth  int
}

// Generate builds the program image for a profile. Generation is fully
// deterministic in Profile.Seed.
//
// The builder runs twice, each time from a fresh generator with the
// same seed, so both passes draw the same random stream and lay out the
// same code. The sizing pass stores nothing; it yields the instruction,
// conditional and indirect counts and every function's entry address.
// The build pass then writes into a code array made once at its exact
// size (no regrowth, no spare capacity) and emits each direct call with
// its callee's entry already known, so no call needs a fixup.
func Generate(p Profile) (*Program, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	sized := &builder{prog: &Program{profile: p, FuncEntries: make([]isa.Addr, p.Funcs)}, sizing: true}
	sized.run()
	counts := sized.prog

	prog := &Program{
		profile:     p,
		code:        make([]isa.StaticInstr, sized.n),
		condTab:     make([]CondMeta, 0, counts.NumCond),
		indirectTab: make([]IndirectMeta, 0, counts.NumIndirect),
		conds:       make(map[isa.Addr]*CondMeta, counts.NumCond),
		indirects:   make(map[isa.Addr]*IndirectMeta, counts.NumIndirect),
		FuncEntries: counts.FuncEntries,
	}
	b := &builder{prog: prog}
	b.run()
	if b.n != sized.n {
		panic(fmt.Sprintf("workload: %s: build pass emitted %d instructions, sizing pass %d", p.Name, b.n, sized.n))
	}
	return prog, nil
}

// run lays out the whole image: every function in address order, then
// the top-level dispatcher.
func (b *builder) run() {
	p := &b.prog.profile
	b.p = p
	b.r = newRNG(p.Seed)

	// Assign call-graph levels: function i may only call functions with
	// a strictly greater level, which rules out recursion.
	b.levels = make([]int, p.Funcs)
	for i := range b.levels {
		b.levels[i] = b.r.intn(p.MaxCallDepth)
	}

	for f := 0; f < p.Funcs; f++ {
		b.prog.FuncEntries[f] = b.nextAddr()
		b.depth = 0
		nStmts := b.r.rangeIn(p.StmtsPerFunc[0], p.StmtsPerFunc[1])
		for s := 0; s < nStmts; s++ {
			b.emitStatement(f)
		}
		b.emitReturn()
	}

	// Top-level dispatcher: an infinite loop around an indirect call
	// that selects among the DispatchTargets hottest functions — the
	// synthetic stand-in for the server's request-dispatch loop.
	b.prog.entry = b.nextAddr()
	b.emitDispatcher()
}

// NewProgramFromImage rebuilds a Program from an externally captured
// static image (a UDPT2 trace's embedded code layout). The resulting
// program carries no executor metadata — conds/indirects are empty —
// because a trace-driven run takes dynamic behaviour from the recorded
// stream, and the frontend consults only the static fields. Code must
// be dense from ImageBase in layout order (code[i].PC == ImageBase+4i);
// that invariant is what makes InstrAt a single index computation.
func NewProgramFromImage(p Profile, entry isa.Addr, code []isa.StaticInstr) (*Program, error) {
	for i := range code {
		if want := pcOf(i); code[i].PC != want {
			return nil, fmt.Errorf("workload: image not dense at instr %d: pc %#x, want %#x", i, code[i].PC, want)
		}
	}
	return &Program{
		profile:   p,
		code:      code,
		entry:     entry,
		conds:     make(map[isa.Addr]*CondMeta),
		indirects: make(map[isa.Addr]*IndirectMeta),
	}, nil
}

// StaticCode exposes the full static image in layout order (trace
// recording embeds it; inspectors walk it). Callers must not mutate.
func (pr *Program) StaticCode() []isa.StaticInstr { return pr.code }

// MustGenerate is Generate for statically known-good profiles.
func MustGenerate(p Profile) *Program {
	prog, err := Generate(p)
	if err != nil {
		panic(err)
	}
	return prog
}

// pcOf is the address of the i-th instruction of a dense image.
func pcOf(i int) isa.Addr { return ImageBase + isa.Addr(i*isa.InstrBytes) }

func (b *builder) nextAddr() isa.Addr { return pcOf(b.n) }

// emit places the next instruction, returning its index.
func (b *builder) emit(class isa.Class, kind isa.BranchKind, target, data isa.Addr) int {
	i := b.n
	b.n++
	if !b.sizing {
		b.prog.code[i] = isa.StaticInstr{PC: pcOf(i), Class: class, Branch: kind, Target: target, DataAddr: data}
	}
	return i
}

// setTarget backpatches instruction i's branch target.
func (b *builder) setTarget(i int, target isa.Addr) {
	if !b.sizing {
		b.prog.code[i].Target = target
	}
}

// emitStatement generates one statement (possibly nested).
func (b *builder) emitStatement(funcID int) {
	p := b.p
	wTotal := p.WStraight + p.WDiamond + p.WLoop + p.WCall + p.WSwitch
	x := b.r.float() * wTotal
	// Nested statements beyond MaxDepth degrade to straight-line code.
	if b.depth >= p.MaxDepth {
		b.emitStraight()
		return
	}
	switch {
	case x < p.WStraight:
		b.emitStraight()
	case x < p.WStraight+p.WDiamond:
		b.emitDiamond(funcID)
	case x < p.WStraight+p.WDiamond+p.WLoop:
		b.emitLoop(funcID)
	case x < p.WStraight+p.WDiamond+p.WLoop+p.WCall:
		b.emitCall(funcID)
	default:
		b.emitSwitch(funcID)
	}
}

// emitStraight emits a run of non-branch instructions with the profile's
// load/store mix and data-region assignment.
func (b *builder) emitStraight() {
	n := b.r.rangeIn(b.p.BBLInstrs[0], b.p.BBLInstrs[1])
	for i := 0; i < n; i++ {
		x := b.r.float()
		switch {
		case x < b.p.LoadFrac:
			b.emit(isa.ClassLoad, isa.BranchNone, 0, b.dataAddr())
		case x < b.p.LoadFrac+b.p.StoreFrac:
			b.emit(isa.ClassStore, isa.BranchNone, 0, b.dataAddr())
		case x < b.p.LoadFrac+b.p.StoreFrac+0.05:
			b.emit(isa.ClassMul, isa.BranchNone, 0, 0)
		default:
			b.emit(isa.ClassALU, isa.BranchNone, 0, 0)
		}
	}
}

// dataAddr assigns a static representative data address: either in the
// small hot region (reused, cache-friendly) or the large random region.
// It takes exactly two draws either way, which lets the sizing pass skip
// them without computing either.
func (b *builder) dataAddr() isa.Addr {
	if b.sizing {
		b.r.skip(2) // the two draws below; the sizing pass stores no address
		return 0
	}
	const hotRegion = 0x10000000
	const randRegion = 0x20000000
	if b.r.float() < b.p.DataRandFrac {
		span := b.p.DataRegionBytes
		if span == 0 {
			span = 1 << 24
		}
		return isa.Addr(randRegion + b.r.next()%span&^7)
	}
	return isa.Addr(hotRegion + uint64(b.r.intn(1<<15))&^7)
}

// condMeta draws a conditional behaviour from the profile mixture.
func (b *builder) condMeta() CondMeta {
	x := b.r.float()
	switch {
	case x < b.p.FracBiased:
		// Biased toward fallthrough: taken with small probability.
		pt := b.p.BiasedP
		if pt == 0 {
			pt = 0.05
		}
		// Half the biased branches are biased-taken instead.
		if b.r.float() < 0.5 {
			pt = 1 - pt
		}
		return CondMeta{Behavior: CondBiased, PTaken: pt}
	case x < b.p.FracBiased+b.p.FracPeriodic:
		period := uint32(b.r.rangeIn(2, 8))
		return CondMeta{
			Behavior:    CondPeriodic,
			Period:      period,
			PatternBits: b.r.next() | 1, // ensure at least one taken slot
		}
	default:
		pt := b.p.IIDP
		if pt == 0 {
			pt = 0.5
		}
		return CondMeta{Behavior: CondIID, PTaken: pt}
	}
}

// addCond registers the conditional branch at instruction i, assigning
// it the next dense site index (used by the executor for slice-backed
// per-site state instead of map lookups on the hot path). The sizing
// pass presized condTab, so appending never moves the entries the map
// points at.
func (b *builder) addCond(i int, m CondMeta) {
	b.prog.NumCond++
	if b.sizing {
		return
	}
	pr := b.prog
	m.Idx = len(pr.condTab)
	pr.condTab = append(pr.condTab, m)
	pr.code[i].Site = uint32(m.Idx + 1)
	pr.conds[pcOf(i)] = &pr.condTab[m.Idx]
}

// addIndirect registers the indirect branch at instruction i with a
// Zipf(s) popularity over targets in order.
func (b *builder) addIndirect(i int, targets []isa.Addr, s float64) {
	b.prog.NumIndirect++
	if b.sizing {
		return
	}
	pr := b.prog
	k := len(pr.indirectTab)
	pr.indirectTab = append(pr.indirectTab, IndirectMeta{Targets: targets, Cum: zipfWeights(len(targets), s, b.r)})
	pr.code[i].Site = uint32(k + 1)
	pr.indirects[pcOf(i)] = &pr.indirectTab[k]
}

// emitDiamond generates
//
//	cond-branch (taken -> ELSE)
//	THEN: stmts...; jmp MERGE
//	ELSE: stmts...
//	MERGE: ...
//
// giving the program explicit merge points, the code shape whose
// off-path prefetch usefulness the paper analyzes (Fig. 7).
func (b *builder) emitDiamond(funcID int) {
	b.depth++
	defer func() { b.depth-- }()

	condIdx := b.emit(isa.ClassBranch, isa.BranchCond, 0, 0)
	b.addCond(condIdx, b.condMeta())

	// THEN arm.
	b.emitStraight()
	nest := b.p.NestProb
	if nest == 0 {
		nest = 0.3
	}
	if b.depth < b.p.MaxDepth && b.r.float() < nest {
		b.emitStatement(funcID)
	}
	jmpIdx := b.emit(isa.ClassBranch, isa.BranchUncond, 0, 0)

	// ELSE arm starts here; backpatch the conditional.
	b.setTarget(condIdx, b.nextAddr())
	b.emitStraight()
	if b.depth < b.p.MaxDepth && b.r.float() < nest {
		b.emitStatement(funcID)
	}

	// MERGE point; backpatch the jump.
	b.setTarget(jmpIdx, b.nextAddr())
	// A short post-merge block guarantees the merge point has real code
	// that both paths execute.
	b.emitStraight()
}

// emitLoop generates
//
//	HEADER: body stmts...
//	        cond-branch (taken -> HEADER)
//
// Trip counts shrink with call-graph level and statement nesting depth:
// loops multiply across nesting AND across call chains (a loop body
// calling a function that loops), so un-damped trip counts make the
// expected instructions-per-dispatch unbounded and the executor can
// disappear into one function for millions of instructions.
func (b *builder) emitLoop(funcID int) {
	b.depth++
	defer func() { b.depth-- }()

	header := b.nextAddr()
	b.emitStraight()
	nest := b.p.NestProb
	if nest == 0 {
		nest = 0.4
	}
	if b.depth < b.p.MaxDepth && b.r.float() < nest {
		b.emitStatement(funcID)
	}
	backIdx := b.emit(isa.ClassBranch, isa.BranchCond, header, 0)
	damp := uint(b.levels[funcID]) + uint(b.depth-1)
	hi := b.p.LoopTrip[1] >> damp
	if hi < b.p.LoopTrip[0] {
		hi = b.p.LoopTrip[0]
	}
	trip := uint32(b.r.rangeIn(b.p.LoopTrip[0], hi))
	meta := CondMeta{Behavior: CondLoop, Trip: trip}
	if b.p.LoopTripVariable && trip > 2 {
		meta.TripJitter = trip / 2
	}
	b.addCond(backIdx, meta)
}

// emitCall emits a direct call to a function at a strictly deeper
// call-graph level (no recursion). When no deeper function exists the
// statement degrades to straight-line code. The callee may lie later in
// the image; the build pass knows its entry from the sizing pass.
func (b *builder) emitCall(funcID int) {
	myLevel := b.levels[funcID]
	// Sample a few candidates for a deeper callee.
	for try := 0; try < 8; try++ {
		callee := b.r.intn(len(b.levels))
		if b.levels[callee] > myLevel {
			b.emit(isa.ClassBranch, isa.BranchCall, b.prog.FuncEntries[callee], 0)
			b.prog.NumCalls++
			return
		}
	}
	b.emitStraight()
}

// emitSwitch generates an indirect jump over K case blocks, each ending
// with a jump to a common merge point — modelling switch statements and
// virtual dispatch within a function.
func (b *builder) emitSwitch(funcID int) {
	b.depth++
	defer func() { b.depth-- }()

	k := b.r.rangeIn(b.p.SwitchTargets[0], b.p.SwitchTargets[1])
	ijIdx := b.emit(isa.ClassBranch, isa.BranchIndirect, 0, 0)

	caseStarts := make([]isa.Addr, k)
	mergeJumps := make([]int, k)
	for c := 0; c < k; c++ {
		caseStarts[c] = b.nextAddr()
		b.emitStraight()
		mergeJumps[c] = b.emit(isa.ClassBranch, isa.BranchUncond, 0, 0)
	}
	merge := b.nextAddr()
	for _, idx := range mergeJumps {
		b.setTarget(idx, merge)
	}
	b.emitStraight()

	// Case popularity: Zipf with mild skew so indirect predictors can
	// learn the hot cases but still miss.
	b.addIndirect(ijIdx, caseStarts, 1.2)
	b.setTarget(ijIdx, caseStarts[0]) // most common target
}

// emitReturn terminates a function.
func (b *builder) emitReturn() {
	b.emit(isa.ClassBranch, isa.BranchReturn, 0, 0)
}

// emitDispatcher generates the top-level request loop:
//
//	LOOP: some work
//	      icall [dispatch over hot functions]
//	      jmp LOOP
func (b *builder) emitDispatcher() {
	loop := b.nextAddr()
	b.emitStraight()
	entries := b.prog.FuncEntries
	icIdx := b.emit(isa.ClassBranch, isa.BranchIndirectCall, entries[0], 0)
	b.prog.dispatchPC = pcOf(icIdx)

	n := b.p.DispatchTargets
	if n <= 0 || n > len(entries) {
		n = len(entries)
	}
	s := b.p.DispatchZipf
	if s == 0 {
		s = 1.0
	}
	b.addIndirect(icIdx, append([]isa.Addr(nil), entries[:n]...), s)

	b.emit(isa.ClassBranch, isa.BranchUncond, loop, 0)
}

// --- image queries (hot path for the frontend) ---

// Entry returns the program's start address.
func (pr *Program) Entry() isa.Addr { return pr.entry }

// Size returns the number of static instructions.
func (pr *Program) Size() int { return len(pr.code) }

// FootprintBytes returns the code footprint.
func (pr *Program) FootprintBytes() int { return len(pr.code) * isa.InstrBytes }

// padNop is returned for walks outside the image (deep wrong path).
var padNop = isa.StaticInstr{Class: isa.ClassNop}

// InstrAt returns the static instruction at pc. Addresses outside the
// image (reachable only on the wrong path) return a synthetic nop at
// that pc so the frontend can keep walking — and polluting the icache —
// exactly as hardware running into unmapped bytes would.
func (pr *Program) InstrAt(pc isa.Addr) *isa.StaticInstr {
	if pc < ImageBase || uint64(pc-ImageBase)%isa.InstrBytes != 0 {
		n := padNop
		n.PC = pc
		return &n
	}
	idx := uint64(pc-ImageBase) / isa.InstrBytes
	if idx >= uint64(len(pr.code)) {
		n := padNop
		n.PC = pc
		return &n
	}
	return &pr.code[idx]
}

// InImage reports whether pc falls inside the generated code.
func (pr *Program) InImage(pc isa.Addr) bool {
	if pc < ImageBase || uint64(pc-ImageBase)%isa.InstrBytes != 0 {
		return false
	}
	return uint64(pc-ImageBase)/isa.InstrBytes < uint64(len(pr.code))
}

// CondSites returns the number of conditional branch sites; CondMeta.Idx
// values are dense in [0, CondSites).
func (pr *Program) CondSites() int { return len(pr.condTab) }

// condOf returns the conditional metadata si.Site indexes, or nil. A
// Site of 0 wraps to a huge index and fails the bounds test, as does
// any Site over a program built by NewProgramFromImage, which has no
// metadata.
func (pr *Program) condOf(si *isa.StaticInstr) *CondMeta {
	if k := uint(si.Site) - 1; k < uint(len(pr.condTab)) {
		return &pr.condTab[k]
	}
	return nil
}

// indirectOf is condOf for the indirect kinds.
func (pr *Program) indirectOf(si *isa.StaticInstr) *IndirectMeta {
	if k := uint(si.Site) - 1; k < uint(len(pr.indirectTab)) {
		return &pr.indirectTab[k]
	}
	return nil
}

// CondMetaAt exposes conditional behaviour (executor + tests).
func (pr *Program) CondMetaAt(pc isa.Addr) *CondMeta { return pr.conds[pc] }

// IndirectMetaAt exposes indirect target sets (executor + tests).
func (pr *Program) IndirectMetaAt(pc isa.Addr) *IndirectMeta { return pr.indirects[pc] }

// Profile returns the generating profile.
func (pr *Program) Profile() Profile { return pr.profile }

// DispatchPC returns the top-level dispatcher's indirect call address.
func (pr *Program) DispatchPC() isa.Addr { return pr.dispatchPC }

// String summarizes the image.
func (pr *Program) String() string {
	return fmt.Sprintf("%s: %d instrs (%d KiB), %d funcs, %d cond, %d indirect, %d calls",
		pr.profile.Name, len(pr.code), pr.FootprintBytes()/1024, len(pr.FuncEntries),
		pr.NumCond, pr.NumIndirect, pr.NumCalls)
}
