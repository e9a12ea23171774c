package memory

import (
	"testing"

	"udpsim/internal/isa"
)

// BenchmarkHierarchyRequest measures the per-request cost of the
// two-phase request path (lookup + MSHR allocate/merge + fill-port and
// DRAM-channel scheduling + completion sweep), the memory-side
// component of Machine.Step's cycle budget. It lives next to
// BenchmarkMachineStep in the CI bench artifact and shares its
// contract: the request path must not allocate — the zero-alloc awk
// gate in CI checks this file's allocs/op column too.
func BenchmarkHierarchyRequest(b *testing.B) {
	b.Run("instr-mixed", func(b *testing.B) {
		h := New(testConfig())
		// 1024 lines (64 KiB): larger than L1I working sets, small
		// enough that steady state mixes L2 hits, merges and misses.
		const lines = 1024
		b.ReportAllocs()
		b.ResetTimer()
		cycle := uint64(1)
		for i := 0; i < b.N; i++ {
			h.Tick(cycle)
			h.InstrRequest(ln(i%lines), cycle, i%4 == 0)
			cycle++
		}
	})
	b.Run("data-mixed", func(b *testing.B) {
		h := New(testConfig())
		const spanBytes = 1 << 20 // 1 MiB stride space: L1D misses, LLC mostly holds
		b.ReportAllocs()
		b.ResetTimer()
		cycle := uint64(1)
		for i := 0; i < b.N; i++ {
			h.Tick(cycle)
			h.DataRequest(isa.Addr(0x800000+(i*72)%spanBytes), cycle)
			cycle++
		}
	})
	b.Run("data-retry", func(b *testing.B) {
		// A full L1D MSHR file whose fills do not land within the run,
		// and four blocked loads re-issued every cycle the way the
		// backend re-issues them (blockedDemand): the retry storm of a
		// memory-bound phase.
		cfg := testConfig()
		cfg.DRAMLatency = 1 << 40
		h := New(cfg)
		for i := 0; i < h.L1DMSHRFile().Capacity(); i++ {
			h.DataRequest(ln(i), 1)
		}
		const blocked = 4
		var ds [blocked]blockedDemand
		for k := range ds {
			ds[k].addr = ln(1000 + k)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cycle := uint64(2 + i/blocked)
			h.Tick(cycle)
			ds[i%blocked].issue(h, cycle)
		}
		b.StopTimer()
		if h.Stats.L1D.Retries != uint64(b.N) {
			b.Fatalf("%d of %d requests rejected, want all", h.Stats.L1D.Retries, b.N)
		}
	})
}

// TestHierarchyRequestZeroAlloc pins the zero-allocation contract of
// the request path outside the benchmark, so a regression fails `go
// test` even when benchmarks are not run.
func TestHierarchyRequestZeroAlloc(t *testing.T) {
	h := New(testConfig())
	cycle := uint64(1)
	// Warm the MSHR files and ports past their initial growth.
	for i := 0; i < 4096; i++ {
		h.Tick(cycle)
		h.InstrRequest(ln(i%512), cycle, i%4 == 0)
		h.DataRequest(isa.Addr(0x800000+(i*72)%(1<<20)), cycle)
		cycle++
	}
	allocs := testing.AllocsPerRun(2000, func() {
		h.Tick(cycle)
		h.InstrRequest(ln(int(cycle)%512), cycle, cycle%4 == 0)
		h.DataRequest(isa.Addr(0x800000+(uint64(cycle)*72)%(1<<20)), cycle)
		cycle++
	})
	if allocs != 0 {
		t.Errorf("request path allocates: %.1f allocs/op", allocs)
	}
}
