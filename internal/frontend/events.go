package frontend

import "udpsim/internal/isa"

// OnDecode is invoked by the backend as it decodes each instruction.
// It implements post-fetch correction (Ishii [28]): a branch that the
// BTB missed at block-build time is discovered here, inserted into the
// BTB, and — when it redirects fetch — the FTQ is flushed and the
// frontend resteered immediately instead of waiting for execute.
//
// It returns true when a resteer occurred; the backend must then stop
// decoding this cycle (everything younger was flushed).
func (f *Frontend) OnDecode(fi *FrontInstr, cycle uint64) bool {
	pb := fi.Branch
	if pb == nil || pb.FromBTB {
		return false
	}
	si := fi.Static
	f.Stats.PostFetchDiscoveries++
	f.btb.Insert(si.PC, si.Branch, si.Target, cycle)

	// Determine the branch's behaviour as decode sees it.
	taken := true
	target := si.Target
	switch {
	case si.Branch.IsConditional():
		pred := f.dir.Predict(si.PC)
		pb.Pred = pred
		pb.HasPred = true
		f.tuner.OnCondPrediction(pred.Conf)
		taken = pred.Taken
	case si.Branch.PopsRAS():
		target = f.ras.Peek()
		if target == 0 {
			target = si.Target
		}
	case si.Branch == isa.BranchIndirect || si.Branch == isa.BranchIndirectCall:
		if t, ok := f.ibtb.Lookup(si.PC, pb.HistSnap.PathHist); ok {
			target = t
		}
	}
	pb.PredTaken = taken
	pb.PredTarget = target
	if !taken {
		// Sequential fetch already matches the predicted (not-taken)
		// path: no resteer. Any divergence anchored here (oracle said
		// taken) stays pending until execute.
		return false
	}

	// Resteer: flush everything younger than fi and redirect fetch.
	f.Stats.PostFetchResteers++
	if f.Obs != nil {
		f.Obs.Resteer()
	}
	f.flushYoungerThan(fi.FetchSeq)

	// Speculative state: rewind to the branch's build-time snapshot and
	// re-apply its now-known behaviour.
	f.dir.Restore(pb.HistSnap)
	f.ras.Restore(pb.RASSnap)
	if si.Branch.IsConditional() {
		f.dir.SpecUpdate(si.PC, true)
	}
	if si.Branch.PushesRAS() {
		f.ras.Push(si.FallThrough())
	}
	if si.Branch.PopsRAS() {
		f.ras.Pop()
	}

	switch {
	case fi.Divergence != nil:
		// The divergence is anchored at this very branch (BTB-missed
		// taken branch). If decode's redirect matches the oracle, the
		// frontend is healed early — the paper's post-fetch correction
		// win. Otherwise the divergence stays pending for execute.
		div := fi.Divergence
		if div.ActualTaken && target == div.ActualTarget {
			f.Stats.PostFetchRecoveries++
			f.onPath = true
			f.oracle.Rewind(div.OracleCursor)
			fi.Divergence = nil
			f.divergence = nil
		}
		f.fetchPC = target
	case fi.OnPath:
		// The oracle did NOT take this branch (otherwise a divergence
		// would exist), but decode predicts taken: post-fetch
		// correction itself sends us off-path.
		f.oracle.Rewind(fi.OracleCursorAfter)
		f.diverge(fi, DivPostFetch, si.FallThrough(), fi.Oracle.Taken, fi.Oracle.Target, cycle)
		f.fetchPC = target
	default:
		// Already off-path: just follow the redirect.
		f.fetchPC = target
	}
	f.tuner.OnResteer(ResteerPostFetch)
	return true
}

// flushYoungerThan clears all frontend state younger than seq: FTQ
// blocks, the in-progress fetch block, and the decode queue. Flushed
// blocks and instructions return to the pools; instructions already
// handed to the backend are released by the ROB (retire/squash).
func (f *Frontend) flushYoungerThan(seq uint64) {
	// A divergence belonging to a flushed (younger) instruction is
	// void; nil the pointer before its owning instruction is recycled.
	if f.divergence != nil && f.divSeq > seq {
		f.divergence = nil
		// Path state is re-established by the caller.
	}
	// Everything still queued is younger than an instruction that has
	// reached decode or execute.
	for fb := f.ftq.Pop(); fb != nil; fb = f.ftq.Pop() {
		f.releaseBlockInstrs(fb, 0)
	}
	if f.curBlock != nil {
		// Instructions before curIdx were streamed to the decode queue
		// or backend; only the unstreamed tail dies with the block.
		f.releaseBlockInstrs(f.curBlock, f.curIdx)
		f.curBlock = nil
	}
	f.needAccess = false
	for fi := f.decodeQ.pop(); fi != nil; fi = f.decodeQ.pop() {
		f.instrs.put(fi)
	}
}

// Recover performs an execute-time misprediction recovery for the
// diverging branch fi: flush everything younger, restore speculative
// predictor state, resteer fetch to the architecturally correct PC, and
// resynchronize with the oracle.
func (f *Frontend) Recover(fi *FrontInstr, cycle uint64) {
	div := fi.Divergence
	if div == nil {
		return
	}
	f.Stats.Recoveries++
	if cycle >= div.BornCycle {
		f.ResolutionLatency.Observe(cycle - div.BornCycle)
		if f.Obs != nil {
			f.Obs.Recovery(cycle - div.BornCycle)
		}
	}
	f.flushYoungerThan(fi.FetchSeq)

	f.dir.Restore(div.HistSnap)
	f.ras.Restore(div.RASSnap)
	if div.BranchKind.IsConditional() {
		f.dir.SpecUpdate(div.BranchPC, div.ActualTaken)
	}
	if div.BranchKind.PushesRAS() {
		f.ras.Push(fi.Static.FallThrough())
	}
	if div.BranchKind.PopsRAS() {
		f.ras.Pop()
	}

	f.fetchPC = div.RecoverPC
	f.onPath = true
	f.oracle.Rewind(div.OracleCursor)
	fi.Divergence = nil
	f.divergence = nil
	f.tuner.OnResteer(ResteerRecovery)
}

// OnRetire trains the predictors with a retired (necessarily on-path)
// instruction and feeds the tuner's Seniority-FTQ matching.
func (f *Frontend) OnRetire(fi *FrontInstr, cycle uint64) {
	f.tuner.OnRetire(fi.Static.PC.Line())
	pb := fi.Branch
	if pb == nil {
		return
	}
	si := fi.Static
	o := fi.Oracle
	if o.Taken {
		f.tuner.OnRetireTakenBranch(si.PC.Block())
	}
	if si.Branch.IsConditional() && pb.Predicted() {
		f.dir.Train(si.PC, o.Taken, pb.Pred)
	}
	switch si.Branch {
	case isa.BranchIndirect, isa.BranchIndirectCall:
		f.ibtb.Update(si.PC, pb.HistSnap.PathHist, o.Target)
		// Keep the BTB's fallback target fresh for indirect branches.
		f.btb.Insert(si.PC, si.Branch, o.Target, cycle)
	}
}
