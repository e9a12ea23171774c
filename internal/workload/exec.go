package workload

import (
	"udpsim/internal/isa"
)

// Executor walks a Program architecturally, producing the oracle
// (on-path) dynamic instruction stream. It is the model's stand-in for
// Scarab's execution-driven frontend: the simulator's decoupled frontend
// consumes this stream for on-path resolution while walking the static
// image itself for (possibly wrong-path) fetch.
type Executor struct {
	prog *Program
	r    *rng
	pc   isa.Addr
	seq  uint64

	// Architectural call stack.
	stack []isa.Addr

	// Per-branch instance counters for periodic branches and live loop
	// iteration state, dense slices indexed by CondMeta.Idx so the hot
	// path never touches a map (zero-alloc Step invariant). loopGoal==0
	// means "unset": tripFor always returns >= 1.
	instCount []uint64
	loopIter  []uint32
	loopGoal  []uint32

	// Data-address stream state: loads tagged "stream" advance.
	streamOff uint64

	// Phase rotation.
	phaseLen   uint64
	phase      uint64
	phaseShift int

	// Round-robin dispatcher cursor (DispatchSequential).
	dispatchRR uint64
}

// NewExecutor starts an executor at the program entry. seedSalt allows
// multiple independent "simpoints" of the same program: different salts
// produce different dynamic behaviour over the same static image.
func NewExecutor(prog *Program, seedSalt uint64) *Executor {
	n := prog.CondSites()
	return &Executor{
		prog:      prog,
		r:         newRNG(prog.profile.Seed*0x9e3779b97f4a7c15 + seedSalt + 1),
		pc:        prog.entry,
		stack:     make([]isa.Addr, 0, 64),
		instCount: make([]uint64, n),
		loopIter:  make([]uint32, n),
		loopGoal:  make([]uint32, n),
		phaseLen:  prog.profile.PhaseLen,
	}
}

// PC returns the executor's current architectural program counter.
func (e *Executor) PC() isa.Addr { return e.pc }

// Seq returns the number of instructions executed so far.
func (e *Executor) Seq() uint64 { return e.seq }

// Next executes one instruction and returns its dynamic record. The
// returned DynInstr's Static pointer aliases the program image.
func (e *Executor) Next() isa.DynInstr {
	si := e.prog.InstrAt(e.pc)
	e.seq++
	d := isa.DynInstr{Static: si, Seq: e.seq}

	switch {
	case si.Branch == isa.BranchNone:
		d.Target = si.FallThrough()
		if si.Class == isa.ClassLoad || si.Class == isa.ClassStore {
			d.DataAddr = e.resolveData(si)
		}
	case si.Branch == isa.BranchCond:
		d.Taken = e.resolveCond(si)
		if d.Taken {
			d.Target = si.Target
		} else {
			d.Target = si.FallThrough()
		}
	case si.Branch == isa.BranchUncond:
		d.Taken = true
		d.Target = si.Target
	case si.Branch == isa.BranchCall:
		d.Taken = true
		d.Target = si.Target
		e.stack = append(e.stack, si.FallThrough())
	case si.Branch == isa.BranchReturn:
		d.Taken = true
		if n := len(e.stack); n > 0 {
			d.Target = e.stack[n-1]
			e.stack = e.stack[:n-1]
		} else {
			// Underflow cannot happen from the dispatcher entry; guard
			// for robustness by restarting the program.
			d.Target = e.prog.entry
		}
	case si.Branch == isa.BranchIndirect || si.Branch == isa.BranchIndirectCall:
		d.Taken = true
		d.Target = e.resolveIndirect(si)
		if si.Branch == isa.BranchIndirectCall {
			e.stack = append(e.stack, si.FallThrough())
		}
	}

	e.pc = d.Target
	if d.Target == 0 {
		e.pc = si.FallThrough()
		d.Target = e.pc
	}
	if e.phaseLen > 0 && e.seq%e.phaseLen == 0 {
		e.phase++
		e.phaseShift = int(e.phase) * 7
	}
	return d
}

// resolveCond applies the branch's behaviour process.
func (e *Executor) resolveCond(si *isa.StaticInstr) bool {
	m := e.prog.condOf(si)
	if m == nil {
		// Padding/unknown conditionals (off-image) never occur on-path.
		return false
	}
	switch m.Behavior {
	case CondBiased, CondIID:
		return e.r.float() < m.PTaken
	case CondPeriodic:
		i := e.instCount[m.Idx]
		e.instCount[m.Idx] = i + 1
		return m.PatternBits>>(i%uint64(m.Period))&1 == 1
	case CondLoop:
		iter := e.loopIter[m.Idx]
		goal := e.loopGoal[m.Idx]
		if goal == 0 {
			goal = e.tripFor(m)
			e.loopGoal[m.Idx] = goal
		}
		if iter+1 < goal {
			e.loopIter[m.Idx] = iter + 1
			return true // back edge: continue loop
		}
		e.loopIter[m.Idx] = 0
		e.loopGoal[m.Idx] = 0 // unset: re-roll the trip next entry
		return false          // exit
	default:
		return false
	}
}

func (e *Executor) tripFor(m *CondMeta) uint32 {
	t := m.Trip
	if m.TripJitter > 0 {
		lo := t - m.TripJitter
		t = lo + uint32(e.r.intn(int(2*m.TripJitter+1)))
	}
	if t == 0 {
		t = 1
	}
	return t
}

// resolveIndirect samples the branch's target distribution. The
// dispatcher's distribution rotates with the phase, shifting the hot
// set to exercise always-on adaptation.
func (e *Executor) resolveIndirect(si *isa.StaticInstr) isa.Addr {
	m := e.prog.indirectOf(si)
	if m == nil || len(m.Targets) == 0 {
		return si.FallThrough()
	}
	if si.PC == e.prog.dispatchPC && e.prog.profile.DispatchSequential {
		idx := int(e.dispatchRR) % len(m.Targets)
		e.dispatchRR++
		return m.Targets[idx]
	}
	x := e.r.float()
	idx := len(m.Cum) - 1
	for i, c := range m.Cum {
		if x < c {
			idx = i
			break
		}
	}
	if e.phaseShift != 0 && si.PC == e.prog.dispatchPC {
		idx = (idx + e.phaseShift) % len(m.Targets)
	}
	return m.Targets[idx]
}

// resolveData perturbs the instruction's representative data address per
// dynamic instance: hot-region accesses stay put (locality), random-
// region accesses re-roll (misses), and one in eight becomes a stream
// access (exercising the stream prefetcher).
func (e *Executor) resolveData(si *isa.StaticInstr) isa.Addr {
	const streamRegion = 0x30000000
	a := si.DataAddr
	switch {
	case uint64(a) >= 0x20000000 && uint64(a) < 0x30000000:
		span := e.prog.profile.DataRegionBytes
		if span == 0 {
			span = 1 << 24
		}
		return isa.Addr(0x20000000 + e.r.next()%span&^7)
	case e.r.next()&7 == 0:
		e.streamOff += 8
		return isa.Addr(streamRegion + e.streamOff%(1<<22))
	default:
		return a
	}
}

// Skip fast-forwards n instructions (for simpoint-style region
// selection) without the caller observing them.
func (e *Executor) Skip(n uint64) {
	for i := uint64(0); i < n; i++ {
		e.Next()
	}
}
