package workload

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

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
	// behaviour without hashing its PC.
	condTab     []CondMeta
	indirectTab []IndirectMeta

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

// builder lays out a program image. Generate runs one sizing builder
// over the whole image, then one build builder per shard.
type builder struct {
	prog *Program
	r    rng
	p    *Profile
	// sizing marks the counting pass: it stores no instruction, but it
	// alone writes the Program's FuncEntries, entry, dispatch PC and
	// static counts, and it records ckpts.
	sizing bool
	// n is the number of instructions emitted so far; cond, indirect and
	// calls count the sites emitted so far. cond and indirect are also
	// the next site indices.
	n, cond, indirect, calls int
	levels                   []int
	depth                    int
	// ckpts is the sizing pass's record of the generator's state at each
	// function's entry, ckpts[p.Funcs] being the state after the
	// dispatcher: the end of the image.
	ckpts []checkpoint
}

// checkpoint is the builder's whole state between two functions, so a
// build shard can start at any function without replaying the ones
// before it. It holds no depth: every function starts at depth 0.
type checkpoint struct {
	r                 rng
	n, cond, indirect int
}

func (b *builder) state() checkpoint {
	return checkpoint{r: b.r, n: b.n, cond: b.cond, indirect: b.indirect}
}

// minShardInstrs is the least work Generate gives one build shard: an
// image smaller than two of these is built on the calling goroutine.
const minShardInstrs = 1 << 14

// Generate builds the program image for a profile. Generation is fully
// deterministic in Profile.Seed, and the image is the same on any
// number of cores.
//
// A sizing pass runs the builder over the whole image, storing nothing;
// it yields the instruction, conditional and indirect counts, every
// function's entry address, and a checkpoint of the generator at every
// function's entry. The code array and both site tables are then made
// once at their exact sizes, and the build pass fills them: it splits
// the functions into up to GOMAXPROCS shards of about equal instruction
// count, each replaying its functions from its first checkpoint into
// its own range of the arrays. Every direct call's callee entry is
// already known, so no call needs a fixup, and no shard writes what
// another reads.
func Generate(p Profile) (*Program, error) { return generate(p, 0) }

// generate is Generate with the build pass split into shards shards, or
// fewer when there are fewer functions; shards <= 0 picks one per
// GOMAXPROCS, each at least minShardInstrs long.
func generate(p Profile, shards int) (*Program, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	prog := &Program{profile: p, FuncEntries: make([]isa.Addr, p.Funcs)}
	sized := &builder{prog: prog, p: &prog.profile, r: *newRNG(p.Seed), sizing: true, ckpts: make([]checkpoint, p.Funcs+1)}
	// Assign call-graph levels: function i may only call functions with
	// a strictly greater level, which rules out recursion.
	sized.levels = make([]int, p.Funcs)
	for i := range sized.levels {
		sized.levels[i] = sized.r.intn(p.MaxCallDepth)
	}
	sized.layout(0, p.Funcs)
	if end := pcOf(sized.n); end > isa.MaxAddr {
		return nil, fmt.Errorf("workload %s: %d instructions run past the 4 GiB address space (to %v)", p.Name, sized.n, end)
	}
	prog.NumCond, prog.NumIndirect, prog.NumCalls = sized.cond, sized.indirect, sized.calls
	prog.code = make([]isa.StaticInstr, sized.n)
	prog.condTab = make([]CondMeta, sized.cond)
	prog.indirectTab = make([]IndirectMeta, sized.indirect)

	if shards <= 0 {
		shards = min(runtime.GOMAXPROCS(0), max(1, sized.n/minShardInstrs))
	}
	cuts := shardCuts(sized.ckpts, shards)
	var wg sync.WaitGroup
	for k := 1; k < len(cuts); k++ {
		b := &builder{prog: prog, p: &prog.profile, levels: sized.levels, ckpts: sized.ckpts}
		if k == len(cuts)-1 {
			b.build(cuts[k-1], cuts[k])
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			b.build(lo, hi)
		}(cuts[k-1], cuts[k])
	}
	wg.Wait()
	return prog, nil
}

// shardCuts splits functions [0, len(ckpts)-1) into at most shards
// nonempty runs of about equal instruction count, returning the run
// boundaries: cuts[0] is 0 and the last cut is the function count. The
// last run also carries the dispatcher.
func shardCuts(ckpts []checkpoint, shards int) []int {
	funcs := len(ckpts) - 1
	total := ckpts[funcs].n
	cuts := []int{0}
	for k := 1; k < shards; k++ {
		want := int(int64(total) * int64(k) / int64(shards))
		f := sort.Search(funcs, func(f int) bool { return ckpts[f].n >= want })
		if f > cuts[len(cuts)-1] && f < funcs {
			cuts = append(cuts, f)
		}
	}
	return append(cuts, funcs)
}

// build lays out functions [lo, hi) from lo's checkpoint, and the
// dispatcher when hi is the last function. It must end exactly where
// the sizing pass recorded hi's checkpoint.
func (b *builder) build(lo, hi int) {
	start := b.ckpts[lo]
	b.r, b.n, b.cond, b.indirect = start.r, start.n, start.cond, start.indirect
	b.layout(lo, hi)
	if got, want := b.state(), b.ckpts[hi]; got != want {
		panic(fmt.Sprintf("workload: %s: build of functions [%d, %d) ended at %+v, sizing pass at %+v", b.p.Name, lo, hi, got, want))
	}
}

// layout emits functions [lo, hi) in address order and, when hi is the
// last function, the top-level dispatcher after them.
func (b *builder) layout(lo, hi int) {
	p := b.p
	for f := lo; f < hi; f++ {
		if b.sizing {
			b.ckpts[f] = b.state()
			b.prog.FuncEntries[f] = b.nextAddr()
		}
		b.depth = 0
		nStmts := b.r.rangeIn(p.StmtsPerFunc[0], p.StmtsPerFunc[1])
		for s := 0; s < nStmts; s++ {
			b.emitStatement(f)
		}
		b.emitReturn()
	}
	if hi < p.Funcs {
		return
	}
	// Top-level dispatcher: an infinite loop around an indirect call
	// that selects among the DispatchTargets hottest functions — the
	// synthetic stand-in for the server's request-dispatch loop.
	if b.sizing {
		b.prog.entry = b.nextAddr()
	}
	b.emitDispatcher()
	if b.sizing {
		b.ckpts[hi] = b.state()
	}
}

// NewProgramFromImage rebuilds a Program from an externally captured
// static image (a UDPT2 trace's embedded code layout). The resulting
// program carries no executor metadata — its site tables are empty —
// because a trace-driven run takes dynamic behaviour from the recorded
// stream, and the frontend consults only the static fields. Code must
// be dense from ImageBase in layout order (code[i].PC == ImageBase+4i);
// that invariant is what makes InstrAt a single index computation.
//
// The static counts come from the image's branch kinds, and the
// function entries from its layout: Generate ends every function with
// its one return and lays the next function (or, after the last, the
// dispatcher) right after it.
func NewProgramFromImage(p Profile, entry isa.Addr, code []isa.StaticInstr) (*Program, error) {
	pr := &Program{profile: p, code: code, entry: entry}
	start := 0
	for i := range code {
		if want := pcOf(i); code[i].PC() != want {
			return nil, fmt.Errorf("workload: image not dense at instr %d: pc %#x, want %#x", i, code[i].PC(), want)
		}
		switch code[i].Branch {
		case isa.BranchCond:
			pr.NumCond++
		case isa.BranchIndirect, isa.BranchIndirectCall:
			pr.NumIndirect++
		case isa.BranchCall:
			pr.NumCalls++
		case isa.BranchReturn:
			pr.FuncEntries = append(pr.FuncEntries, pcOf(start))
			start = i + 1
		}
	}
	return pr, nil
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
		b.put(i, class, kind, target, data)
	}
	return i
}

// put builds instruction i into the code array. It is emit's build-pass
// half, kept out of emit so that emit inlines and the sizing pass makes
// no call per instruction.
func (b *builder) put(i int, class isa.Class, kind isa.BranchKind, target, data isa.Addr) {
	b.prog.code[i] = mustInstr(pcOf(i), class, kind, target, data)
}

// setTarget backpatches instruction i's branch target.
func (b *builder) setTarget(i int, target isa.Addr) {
	if !b.sizing {
		si := &b.prog.code[i]
		site := si.Site
		*si = mustInstr(si.PC(), si.Class, si.Branch, target, 0)
		si.Site = site
	}
}

// mustInstr is isa.NewStaticInstr for the generator, whose addresses
// always fit: Generate bounds the image and Profile.Validate the data
// regions before any instruction is built.
func mustInstr(pc isa.Addr, class isa.Class, kind isa.BranchKind, target, data isa.Addr) isa.StaticInstr {
	si, err := isa.NewStaticInstr(pc, class, kind, target, data)
	if err != nil {
		panic(err)
	}
	return si
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
// load/store mix and data-region assignment. Each instruction's class
// compares its draw's integer bits with below's thresholds, which
// decides exactly as comparing the draw's float with the fractions.
func (b *builder) emitStraight() {
	n := b.r.rangeIn(b.p.BBLInstrs[0], b.p.BBLInstrs[1])
	if b.sizing {
		b.sizeStraight(n)
		return
	}
	load := below(b.p.LoadFrac)
	store := below(b.p.LoadFrac + b.p.StoreFrac)
	mul := below(b.p.LoadFrac + b.p.StoreFrac + 0.05)
	for i := 0; i < n; i++ {
		switch u := b.r.next() >> 11; {
		case u < load:
			b.emit(isa.ClassLoad, isa.BranchNone, 0, b.dataAddr())
		case u < store:
			b.emit(isa.ClassStore, isa.BranchNone, 0, b.dataAddr())
		case u < mul:
			b.emit(isa.ClassMul, isa.BranchNone, 0, 0)
		default:
			b.emit(isa.ClassALU, isa.BranchNone, 0, 0)
		}
	}
}

// sizeStraight is emitStraight's sizing pass: it draws each of the n
// instructions' class and skips a load's or store's two address draws,
// in the order emitStraight draws them, and builds nothing. The skip is
// a conditional assignment rather than a branch: the class is random,
// so a branch would mispredict often, and each draw waits on the last
// one's outcome.
func (b *builder) sizeStraight(n int) {
	memOp := max(below(b.p.LoadFrac), below(b.p.LoadFrac+b.p.StoreFrac))
	for i := 0; i < n; i++ {
		var skip uint64
		if b.r.next()>>11 < memOp {
			skip = 2
		}
		b.r.skip(skip)
	}
	b.n += n
}

// below returns the t for which rng.float's draw, float64(u)/2^53 with
// u = next()>>11, is less than f exactly when u < t. Scaling by 2^53 is
// exact, so for f in (0, 1) u < f*2^53 holds exactly when u is below
// its ceiling; no u passes f <= 0 (or NaN), and every u passes f >= 1.
func below(f float64) uint64 {
	switch {
	case !(f > 0):
		return 0
	case f >= 1:
		return 1 << 53
	}
	return uint64(math.Ceil(f * (1 << 53)))
}

// dataAddr assigns a static representative data address: either in the
// small hot region (reused, cache-friendly) or the large random region.
// It takes exactly two draws either way, which lets the sizing pass skip
// them without computing either.
func (b *builder) dataAddr() isa.Addr {
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
// per-site state instead of map lookups on the hot path).
func (b *builder) addCond(i int, m CondMeta) {
	m.Idx = b.cond
	b.cond++
	if b.sizing {
		return
	}
	b.prog.condTab[m.Idx] = m
	b.prog.code[i].Site = uint32(m.Idx + 1)
}

// addIndirect registers the indirect branch at instruction i with a
// Zipf(s) popularity over targets in order.
func (b *builder) addIndirect(i int, targets []isa.Addr, s float64) {
	k := b.indirect
	b.indirect++
	if b.sizing {
		return
	}
	b.prog.indirectTab[k] = IndirectMeta{Targets: targets, Cum: zipfWeights(len(targets), s, &b.r)}
	b.prog.code[i].Site = uint32(k + 1)
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
			b.calls++
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
	if b.sizing {
		b.prog.dispatchPC = pcOf(icIdx)
	}

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

// PadNop is the instruction at a pc outside the image, which only a
// deep wrong-path walk reaches: a synthetic nop, so the frontend keeps
// walking — and polluting the icache — exactly as hardware running into
// unmapped bytes would. Past isa.MaxAddr, which only a walk from a
// crafted trace's target reaches, the nop's PC reads 0: the frontend
// reads a static PC only on branches and on retirement, which a nop
// outside the image never reaches.
func PadNop(pc isa.Addr) isa.StaticInstr {
	if pc > isa.MaxAddr {
		pc = 0
	}
	return mustInstr(pc, isa.ClassNop, isa.BranchNone, 0, 0)
}

// Index returns the layout index of the instruction at pc, and false
// when pc is outside the image or not instruction-aligned.
func (pr *Program) Index(pc isa.Addr) (int, bool) {
	if pc < ImageBase || uint64(pc-ImageBase)%isa.InstrBytes != 0 {
		return 0, false
	}
	idx := uint64(pc-ImageBase) / isa.InstrBytes
	if idx >= uint64(len(pr.code)) {
		return 0, false
	}
	return int(idx), true
}

// InstrAt returns the static instruction at pc, or a fresh heap copy
// of PadNop(pc) outside the image. The cycle loop uses Index and keeps
// the nop in its own storage instead.
func (pr *Program) InstrAt(pc isa.Addr) *isa.StaticInstr {
	if i, ok := pr.Index(pc); ok {
		return &pr.code[i]
	}
	n := PadNop(pc)
	return &n
}

// InImage reports whether pc falls inside the generated code.
func (pr *Program) InImage(pc isa.Addr) bool {
	_, ok := pr.Index(pc)
	return ok
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

// CondMetaAt returns the behaviour of the conditional branch at pc, or
// nil when pc holds none with metadata.
func (pr *Program) CondMetaAt(pc isa.Addr) *CondMeta {
	if si := pr.InstrAt(pc); si.Branch.IsConditional() {
		return pr.condOf(si)
	}
	return nil
}

// IndirectMetaAt returns the target set of the indirect jump or call at
// pc, or nil when pc holds none with metadata (returns have none).
func (pr *Program) IndirectMetaAt(pc isa.Addr) *IndirectMeta {
	if si := pr.InstrAt(pc); si.Branch.IsIndirect() {
		return pr.indirectOf(si)
	}
	return nil
}

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
