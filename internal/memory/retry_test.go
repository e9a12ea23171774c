package memory

import (
	"testing"

	"udpsim/internal/cache"
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

// blockedDemand plays the backend's side of the per-entry retry
// contract for one load: it keeps the DataEpoch of its last rejection
// by the full L1D MSHR file and answers retries at that epoch with
// RejectAgain instead of probing again.
type blockedDemand struct {
	addr     isa.Addr
	rejected bool
	epoch    uint64
	// repeats counts the retries RejectAgain answered.
	repeats int
}

func (d *blockedDemand) issue(h *Hierarchy, cycle uint64) (level Level, ok bool) {
	if d.rejected && d.epoch == h.DataEpoch() {
		h.RejectAgain(d.addr)
		d.repeats++
		return LevelL1, false
	}
	_, level, ok = h.DataRequest(d.addr, cycle)
	d.rejected = !ok && level == LevelL1
	d.epoch = h.DataEpoch()
	return level, ok
}

// allStats is every counter of the hierarchy's own stats, its L1D and
// its L1D MSHR file.
type allStats struct {
	hier Stats
	l1d  cache.Stats
	mshr cache.MSHRStats
}

func snapshotAll(h *Hierarchy) allStats {
	return allStats{h.Stats, h.L1D.Stats, h.L1DMSHRFile().Stats}
}

func TestRejectedRetryCountsEveryAttempt(t *testing.T) {
	// An address inside the line: RejectAgain counts the line.
	addr := ln(100) + 8
	const n = 50
	h := fullL1DMSHRs(t)
	d := &blockedDemand{addr: addr}
	before := snapshotRetry(h)
	for i := 0; i < n; i++ {
		cycle := uint64(101 + i)
		h.Tick(cycle)
		if level, ok := d.issue(h, cycle); ok || level != LevelL1 {
			t.Fatalf("retry %d: ok=%v level=%v, want a rejection at L1", i, ok, level)
		}
	}
	// No fill lands this early: only the first attempt probes.
	if d.repeats != n-1 {
		t.Fatalf("RejectAgain answered %d of %d retries, want %d", d.repeats, n, n-1)
	}
	wantRetries(t, before, snapshotRetry(h), n)

	// The same retries counted in bulk: after the first probe,
	// RejectAgainN(n-1) must leave every counter where n-1 RejectAgain
	// calls did. Only the backpressure events differ, so the bulk
	// hierarchy runs with no observer.
	bulk := fullL1DMSHRs(t)
	bulk.Obs = nil
	bulk.Tick(101)
	if _, _, ok := bulk.DataRequest(addr, 101); ok {
		t.Fatal("bulk: first attempt accepted while the file is full")
	}
	bulk.RejectAgainN(n - 1)
	if got, want := snapshotAll(bulk), snapshotAll(h); got != want {
		t.Fatalf("RejectAgainN(%d) counters %+v, want %+v", n-1, got, want)
	}
	checkInvariant(t, h)
	checkInvariant(t, bulk)
	if got, want := snapshotAll(bulk), snapshotAll(h); got != want {
		t.Fatalf("after drain: RejectAgainN counters %+v, want %+v", got, want)
	}
}

func TestRejectedRetryServedAfterCompletion(t *testing.T) {
	h := fullL1DMSHRs(t)
	d := &blockedDemand{addr: ln(100)}
	f := h.L1DMSHRFile()
	cycle := uint64(101)
	for ; f.Full(); cycle++ {
		if _, ok := d.issue(h, cycle); ok {
			t.Fatalf("cycle %d: accepted while the file is full", cycle)
		}
		h.Tick(cycle + 1)
	}
	if d.repeats == 0 {
		t.Fatal("no retry was answered by RejectAgain")
	}
	allocs := f.Stats.Allocations
	if _, ok := d.issue(h, cycle); !ok {
		t.Fatalf("cycle %d: rejected after an L1D MSHR completed", cycle)
	}
	if f.Stats.Allocations != allocs+1 {
		t.Fatalf("retry served without allocating: allocations %d -> %d", allocs, f.Stats.Allocations)
	}
	checkInvariant(t, h)
}

func TestRejectedRetryServedAfterL1DInstall(t *testing.T) {
	h := fullL1DMSHRs(t)
	d := &blockedDemand{addr: ln(100)}
	if _, ok := d.issue(h, 101); ok {
		t.Fatal("accepted while the file is full")
	}
	// The MSHR file is unchanged and still full, but the line is now
	// present: the retry must hit.
	h.L1D.Insert(d.addr, 102, false)
	hits := h.Stats.DataL1Hits
	if level, ok := d.issue(h, 103); !ok || level != LevelL1 || h.Stats.DataL1Hits != hits+1 {
		t.Fatalf("retry after install: ok=%v level=%v L1 hits %d->%d", ok, level, hits, h.Stats.DataL1Hits)
	}
}

func TestRejectedRetryServedAfterMSHRFlush(t *testing.T) {
	h := fullL1DMSHRs(t)
	d := &blockedDemand{addr: ln(100)}
	if _, ok := d.issue(h, 101); ok {
		t.Fatal("accepted while the file is full")
	}
	// The L1D is unchanged, but the MSHR file now has free entries: the
	// retry must allocate.
	h.L1DMSHRFile().Flush()
	if _, ok := d.issue(h, 102); !ok {
		t.Fatal("retry rejected after the MSHR file was flushed")
	}
}
