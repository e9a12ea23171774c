package btb

import (
	"testing"

	"udpsim/internal/isa"
	"udpsim/internal/workload"
)

// branch is one retired branch: its PC, kind, direction and target.
type branch struct {
	pc, target isa.Addr
	kind       isa.BranchKind
	taken      bool
}

// xgboostBranches captures the branches the synthetic xgboost executor
// retires over n instructions, past its first 100k.
func xgboostBranches(n int) []branch {
	e := workload.NewExecutor(workload.MustGenerate(workload.MustByName("xgboost")), 0)
	e.Skip(100_000)
	var out []branch
	for i := 0; i < n; i++ {
		d := e.Next()
		if k := d.Static.Branch; k != isa.BranchNone {
			out = append(out, branch{d.PC(), d.Target, k, d.Taken})
		}
	}
	return out
}

// BenchmarkBTBLookup measures one lookup in the default 8192-entry,
// 8-way BTB over a real branch stream, inserting each taken branch
// that misses, as the frontend does. ns/op is per lookup; it must not
// allocate.
func BenchmarkBTBLookup(b *testing.B) {
	branches := xgboostBranches(400_000)
	bt := New(Config{Entries: 8192, Ways: 8})
	var cycle uint64
	step := func(br *branch) {
		cycle++
		if _, hit := bt.Lookup(br.pc, cycle); !hit && br.taken {
			bt.Insert(br.pc, br.kind, br.target, cycle)
		}
	}
	for i := range branches { // warm the sets: measure the steady state
		step(&branches[i])
	}
	bt.ResetStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(&branches[i%len(branches)])
	}
	b.ReportMetric(bt.Stats.HitRate(), "hit_ratio")
}
