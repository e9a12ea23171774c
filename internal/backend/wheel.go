package backend

import (
	"fmt"

	"udpsim/internal/frontend"
	"udpsim/internal/isa"
)

// The completion wheel holds every issued, not-yet-done ROB entry in the
// bucket of the cycle it completes, so complete visits only the entries
// due now instead of rescanning everything in flight.
//
// Ordering rule: at cycle c every issued entry due by c completes in
// issue order. When a diverging branch completes, recoverAt flushes the
// younger entries and the due entries after the branch wait until c+1,
// where they complete in issue order together with c+1's own entries.
//
// A bucket is a doubly linked list threaded through the ROB slots (prev,
// next), so the wheel needs no storage beyond its bucket heads, and a
// flushed entry unlinks in O(1). Entries are appended in issue order,
// which keeps every list sorted by seq; deferred entries are inserted at
// their seq position. Latencies are unbounded: a bucket also holds
// entries of later laps (wheelAt = c + k·wheelSize), which complete
// skips until their lap comes round.

const (
	wheelBits = 8
	wheelSize = 1 << wheelBits
	wheelMask = wheelSize - 1
	// noEntry ends a bucket list.
	noEntry int32 = -1
)

// bucket is the head and tail of one wheel slot's list of ROB indices.
type bucket struct{ head, tail int32 }

func newWheel() []bucket {
	w := make([]bucket, wheelSize)
	for i := range w {
		w[i] = bucket{head: noEntry, tail: noEntry}
	}
	return w
}

// schedule puts the entry just issued at cycle into the bucket of its
// completion cycle. An entry ready by cycle itself (a zero-latency
// access) completes next cycle, as the completion stage of this cycle
// has already run.
func (b *Backend) schedule(idx int32, cycle uint64) {
	e := &b.rob[idx]
	e.seq = b.issueSeq
	b.issueSeq++
	e.wheelAt = e.readyAt
	if e.wheelAt <= cycle {
		e.wheelAt = cycle + 1
	}
	b.insertBefore(&b.wheel[e.wheelAt&wheelMask], noEntry, idx)
}

// insertBefore links idx into bk ahead of at (noEntry appends).
func (b *Backend) insertBefore(bk *bucket, at, idx int32) {
	e := &b.rob[idx]
	e.next = at
	if at == noEntry {
		e.prev = bk.tail
		bk.tail = idx
	} else {
		e.prev = b.rob[at].prev
		b.rob[at].prev = idx
	}
	if e.prev == noEntry {
		bk.head = idx
	} else {
		b.rob[e.prev].next = idx
	}
}

// unlink removes idx from the bucket of its wheelAt.
func (b *Backend) unlink(idx int32) {
	e := &b.rob[idx]
	bk := &b.wheel[e.wheelAt&wheelMask]
	if e.prev == noEntry {
		bk.head = e.next
	} else {
		b.rob[e.prev].next = e.next
	}
	if e.next == noEntry {
		bk.tail = e.prev
	} else {
		b.rob[e.next].prev = e.prev
	}
}

// complete marks the entries due this cycle done, in issue order, and
// resolves diverging branches (execute-time recovery).
func (b *Backend) complete(cycle uint64) {
	for i := b.wheel[cycle&wheelMask].head; i != noEntry; {
		e := &b.rob[i]
		next := e.next
		if e.wheelAt != cycle {
			i = next // a later lap
			continue
		}
		b.unlink(i)
		e.state = stateDone
		b.rsBusy--
		switch e.class {
		case isa.ClassLoad:
			b.inFlightLoads--
		case isa.ClassStore:
			b.inFlightStores--
		}
		if e.fi.Divergence != nil {
			// Misprediction resolved at execute: recover. Everything
			// younger is flushed (and leaves the wheel); what else is due
			// resumes next cycle.
			b.recoverAt(int(i), cycle)
			b.deferDue(cycle)
			return
		}
		i = next
	}
}

// deferDue moves the entries still due at cycle, which a recovery cut
// off, into cycle+1's bucket at their issue-order position.
func (b *Backend) deferDue(cycle uint64) {
	to := &b.wheel[(cycle+1)&wheelMask]
	at := to.head
	for i := b.wheel[cycle&wheelMask].head; i != noEntry; {
		e := &b.rob[i]
		next := e.next
		if e.wheelAt == cycle {
			b.unlink(i)
			e.wheelAt = cycle + 1
			for at != noEntry && b.rob[at].seq < e.seq {
				at = b.rob[at].next
			}
			b.insertBefore(to, at, i)
		}
		i = next
	}
}

// CheckInvariants verifies the scheduler's bookkeeping against the ROB
// after the backend has run cycle (diagnostic; O(ROB + wheel), and it
// allocates). No two valid entries may share an instruction (a double
// pool release would do that). rsBusy must count the valid entries not
// yet done, inFlightLoads and inFlightStores the issued loads and
// stores, and the wheel must hold every issued entry exactly once, in
// issue order, in the bucket of a completion cycle after cycle and no
// earlier than its readyAt — and nothing else: no flushed, done or
// dispatched entry. The issue memo must replay (see checkIssueMemo).
func (b *Backend) CheckInvariants(cycle uint64) error {
	busy, loads, stores, issued := 0, 0, 0, 0
	owner := make(map[*frontend.FrontInstr]int, b.count)
	for i := range b.rob {
		e := &b.rob[i]
		if !e.valid {
			continue
		}
		if j, ok := owner[e.fi]; ok {
			return fmt.Errorf("backend: ROB slots %d and %d hold the same instruction (double pool release)", j, i)
		}
		owner[e.fi] = i
		if e.state == stateDone {
			continue
		}
		busy++
		if e.state != stateIssued {
			continue
		}
		issued++
		switch e.class {
		case isa.ClassLoad:
			loads++
		case isa.ClassStore:
			stores++
		}
	}
	if busy != b.rsBusy {
		return fmt.Errorf("backend: rsBusy %d, but %d valid entries are not done", b.rsBusy, busy)
	}
	if loads != b.inFlightLoads || stores != b.inFlightStores {
		return fmt.Errorf("backend: inFlightLoads/Stores %d/%d, but %d/%d issued",
			b.inFlightLoads, b.inFlightStores, loads, stores)
	}
	seen := make([]bool, len(b.rob))
	linked := 0
	for s := range b.wheel {
		bk := &b.wheel[s]
		prev := noEntry
		for i := bk.head; i != noEntry; i = b.rob[i].next {
			e := &b.rob[i]
			switch {
			case seen[i]:
				return fmt.Errorf("backend: ROB slot %d linked twice into the wheel", i)
			case !e.valid || e.state != stateIssued:
				return fmt.Errorf("backend: wheel bucket %d reaches ROB slot %d (valid=%v state=%d)", s, i, e.valid, e.state)
			case int(e.wheelAt&wheelMask) != s:
				return fmt.Errorf("backend: ROB slot %d due at %d sits in bucket %d", i, e.wheelAt, s)
			case e.wheelAt <= cycle || e.wheelAt < e.readyAt:
				return fmt.Errorf("backend: ROB slot %d in the wheel at %d, readyAt %d, after cycle %d", i, e.wheelAt, e.readyAt, cycle)
			case e.prev != prev:
				return fmt.Errorf("backend: ROB slot %d prev link %d, want %d", i, e.prev, prev)
			case prev != noEntry && b.rob[prev].seq >= e.seq:
				return fmt.Errorf("backend: bucket %d out of issue order at ROB slot %d", s, i)
			}
			seen[i] = true
			linked++
			prev = i
		}
		if bk.tail != prev {
			return fmt.Errorf("backend: bucket %d tail %d, want %d", s, bk.tail, prev)
		}
	}
	if linked != issued {
		return fmt.Errorf("backend: wheel holds %d entries, %d are issued", linked, issued)
	}
	return b.checkIssueMemo()
}

// checkIssueMemo verifies that the issue memo would replay: every ref
// in pendingIssue[:memoLen] is a live dispatched entry that, under the
// memo's epoch and buffer fullness and with every port free, is kept
// without issuing or probing; memoRej of them by RejectAgain.
func (b *Backend) checkIssueMemo() error {
	if b.memoLen > len(b.pendingIssue) {
		return fmt.Errorf("backend: issue memo covers %d refs, %d pending", b.memoLen, len(b.pendingIssue))
	}
	var rej uint64
	for i, ref := range b.pendingIssue[:b.memoLen] {
		e := &b.rob[ref.idx]
		if !e.valid || e.gen != ref.gen || e.state != stateDispatched {
			return fmt.Errorf("backend: issue memo ref %d (ROB slot %d) is not a live dispatched entry", i, ref.idx)
		}
		switch {
		case e.class == isa.ClassLoad && !b.memoLdFree, e.class == isa.ClassStore && !b.memoStFree:
			// waits for a load or store buffer slot
		case e.l1dRejected && e.rejectEpoch == b.memoEpoch:
			rej++
		default:
			if dep := b.producer(ref.idx); dep == nil || dep.state != stateDispatched {
				return fmt.Errorf("backend: issue memo ref %d (ROB slot %d) would issue or probe the hierarchy", i, ref.idx)
			}
		}
	}
	if rej != b.memoRej {
		return fmt.Errorf("backend: issue memo counts %d RejectAgain retries, its refs replay %d", b.memoRej, rej)
	}
	return nil
}
