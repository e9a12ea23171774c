package backend

import (
	"testing"

	"udpsim/internal/cache"
	"udpsim/internal/frontend"
	"udpsim/internal/isa"
	"udpsim/internal/memory"
)

// TestBlockedLoadsOnCollidingLines dispatches more loads than the L1D
// MSHR file and any line-indexed memo of 32 slots can hold, on lines
// 32 lines apart, so every line shares one slot of such a memo. Each
// blocked load keeps its own rejection epoch, so every retry still
// counts exactly one hierarchy retry, and all loads complete.
func TestBlockedLoadsOnCollidingLines(t *testing.T) {
	hier := memory.New(memory.Config{
		L1D:             cache.Config{Name: "L1D", SizeBytes: 48 * 1024, Ways: 12, Policy: cache.LRU, HitLatency: 5},
		L2:              cache.Config{Name: "L2", SizeBytes: 512 * 1024, Ways: 8, Policy: cache.LRU},
		LLC:             cache.Config{Name: "LLC", SizeBytes: 2 * 1024 * 1024, Ways: 16, Policy: cache.LRU},
		L2Latency:       13,
		LLCLatency:      36,
		DRAMLatency:     150,
		DRAMBurstCycles: 10,
	})
	// The backend never reaches its frontend here: no load diverges, and
	// the test drives completion and issue without decode or retirement.
	b := New(Config{}, nil, hier)
	const loads = 96
	static, err := isa.NewStaticInstr(0, isa.ClassLoad, isa.BranchNone, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	fis := make([]frontend.FrontInstr, loads)
	for i := range fis {
		fis[i] = frontend.FrontInstr{Static: &static, OnPath: true}
		fis[i].Oracle.DataAddr = isa.Addr(0x800000 + i*32*isa.LineBytes)
		b.rob[b.tail] = robEntry{fi: &fis[i], state: stateDispatched, valid: true, gen: 1, class: isa.ClassLoad}
		b.pendingIssue = append(b.pendingIssue, entryRef{idx: b.tail, gen: 1})
		b.tail++
		b.count++
		b.rsBusy++
	}
	cycle := uint64(0)
	for b.rsBusy > 0 {
		cycle++
		if cycle > 100_000 {
			t.Fatalf("%d loads still in flight after %d cycles", b.rsBusy, cycle)
		}
		hier.Tick(cycle)
		b.complete(cycle)
		b.issue(cycle)
		if err := b.CheckInvariants(cycle); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
	}
	if b.Stats.MemRetries < loads {
		t.Fatalf("only %d retries: the MSHR file never backed the loads up", b.Stats.MemRetries)
	}
	if r := hier.Stats.L1D.Retries; b.Stats.MemRetries != r {
		t.Fatalf("BE.MemRetries %d != Mem.L1D.Retries %d", b.Stats.MemRetries, r)
	}
	if r := hier.Stats.DemandRetries(); r != hier.Stats.L1D.Retries {
		t.Fatalf("%d demand retries below the L1D: the test meant to block at the L1D only", r-hier.Stats.L1D.Retries)
	}
}
