package memory

import (
	"testing"

	"udpsim/internal/isa"
	"udpsim/internal/obs"
)

// fullL1DMSHRs returns a hierarchy whose L1D MSHR file is full of
// demand misses issued at cycle 100 (lines ln(0)..ln(capacity-1)), with
// a tracer attached to count backpressure events.
func fullL1DMSHRs(t *testing.T) *Hierarchy {
	t.Helper()
	h := New(testConfig())
	h.Obs = &obs.Observer{Trace: obs.NewTracer(1 << 12)}
	f := h.L1DMSHRFile()
	for i := 0; i < f.Capacity(); i++ {
		if _, _, ok := h.DataRequest(ln(i), 100); !ok {
			t.Fatalf("filling request %d rejected", i)
		}
	}
	if !f.Full() {
		t.Fatalf("L1D MSHR file not full: %d of %d", f.Occupancy(), f.Capacity())
	}
	return h
}

// retryCounters is every counter a rejected data demand moves.
type retryCounters struct {
	fillRequests, retries, misses, allocFailures uint64
	backpressure                                 int
}

func snapshotRetry(h *Hierarchy) retryCounters {
	return retryCounters{
		fillRequests:  h.Stats.L1D.FillRequests,
		retries:       h.Stats.L1D.Retries,
		misses:        h.L1D.Stats.Misses,
		allocFailures: h.L1DMSHRFile().Stats.AllocFailures,
		backpressure:  h.Obs.Trace.CountByKind()[obs.EvMemBackpressure.String()],
	}
}

// wantRetries fails unless each rejection counter moved by exactly n
// between before and after.
func wantRetries(t *testing.T, before, after retryCounters, n int) {
	t.Helper()
	d := uint64(n)
	if after.fillRequests-before.fillRequests != d || after.retries-before.retries != d ||
		after.misses-before.misses != d || after.allocFailures-before.allocFailures != d ||
		after.backpressure-before.backpressure != n {
		t.Fatalf("after %d rejected retries: before %+v after %+v", n, before, after)
	}
}

// collidingLine returns a line that maps to the same rejected-demand
// memo slot as lineAddr.
func collidingLine(lineAddr isa.Addr) isa.Addr {
	return lineAddr + rejectedSlots*isa.LineBytes
}

func TestRejectedRetryCountsEveryAttempt(t *testing.T) {
	h := fullL1DMSHRs(t)
	blocked := ln(100)
	before := snapshotRetry(h)
	const n = 50
	for i := 0; i < n; i++ {
		cycle := uint64(101 + i)
		h.Tick(cycle)
		// An address inside the line: the memo is keyed by line.
		if _, level, ok := h.DataRequest(blocked+8, cycle); ok || level != LevelL1 {
			t.Fatalf("retry %d: ok=%v level=%v, want a rejection at L1", i, ok, level)
		}
	}
	wantRetries(t, before, snapshotRetry(h), n)
	checkInvariant(t, h)
}

func TestRejectedRetryCollidingLines(t *testing.T) {
	h := fullL1DMSHRs(t)
	x := ln(100)
	y := collidingLine(x)
	before := snapshotRetry(h)
	const n = 20
	for i := 0; i < n; i++ {
		for _, a := range []isa.Addr{x, y} {
			if _, _, ok := h.DataRequest(a, uint64(101+i)); ok {
				t.Fatalf("round %d: line %#x accepted with a full L1D MSHR file", i, a)
			}
		}
	}
	wantRetries(t, before, snapshotRetry(h), 2*n)

	// Lines sharing x's slot that are in flight or present must not be
	// answered by x's rejection.
	if _, _, ok := h.DataRequest(x, 130); ok {
		t.Fatal("x accepted")
	}
	slot := func(a isa.Addr) uint64 { return uint64(a) / isa.LineBytes % rejectedSlots }
	shared := 0
	for i := 0; i < h.L1DMSHRFile().Capacity(); i++ {
		a := ln(i)
		if slot(a) != slot(x) {
			continue
		}
		shared++
		merges := h.Stats.L1D.Merges
		if _, level, ok := h.DataRequest(a, 131); !ok || level != LevelL1 || h.Stats.L1D.Merges != merges+1 {
			t.Fatalf("in-flight line %#x sharing the memo slot: ok=%v level=%v merges %d->%d",
				a, ok, level, merges, h.Stats.L1D.Merges)
		}
	}
	if shared == 0 {
		t.Fatal("no in-flight line shares x's memo slot")
	}
	checkInvariant(t, h)
}

func TestRejectedRetryServedAfterCompletion(t *testing.T) {
	h := fullL1DMSHRs(t)
	blocked := ln(100)
	f := h.L1DMSHRFile()
	cycle := uint64(101)
	for ; f.Full(); cycle++ {
		if _, _, ok := h.DataRequest(blocked, cycle); ok {
			t.Fatalf("cycle %d: accepted while the file is full", cycle)
		}
		h.Tick(cycle + 1)
	}
	allocs := f.Stats.Allocations
	if _, _, ok := h.DataRequest(blocked, cycle); !ok {
		t.Fatalf("cycle %d: rejected after an L1D MSHR completed", cycle)
	}
	if f.Stats.Allocations != allocs+1 {
		t.Fatalf("retry served without allocating: allocations %d -> %d", allocs, f.Stats.Allocations)
	}
	checkInvariant(t, h)
}

func TestRejectedRetryServedAfterL1DInstall(t *testing.T) {
	h := fullL1DMSHRs(t)
	blocked := ln(100)
	if _, _, ok := h.DataRequest(blocked, 101); ok {
		t.Fatal("accepted while the file is full")
	}
	// The MSHR file is unchanged and still full, but the line is now
	// present: the retry must hit.
	h.L1D.Insert(blocked, 102, false)
	hits := h.Stats.DataL1Hits
	if _, level, ok := h.DataRequest(blocked, 103); !ok || level != LevelL1 || h.Stats.DataL1Hits != hits+1 {
		t.Fatalf("retry after install: ok=%v level=%v L1 hits %d->%d", ok, level, hits, h.Stats.DataL1Hits)
	}
}

func TestRejectedRetryServedAfterMSHRFlush(t *testing.T) {
	h := fullL1DMSHRs(t)
	blocked := ln(100)
	if _, _, ok := h.DataRequest(blocked, 101); ok {
		t.Fatal("accepted while the file is full")
	}
	// The L1D is unchanged, but the MSHR file now has free entries: the
	// retry must allocate.
	h.L1DMSHRFile().Flush()
	if _, _, ok := h.DataRequest(blocked, 102); !ok {
		t.Fatal("retry rejected after the MSHR file was flushed")
	}
}
