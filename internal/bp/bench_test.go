package bp

import (
	"testing"

	"udpsim/internal/isa"
	"udpsim/internal/workload"
)

// condOutcome is one retired conditional branch: its PC and direction.
type condOutcome struct {
	pc    isa.Addr
	taken bool
}

// xgboostConds captures the conditional branches the synthetic xgboost
// executor retires over n instructions, past its first 100k.
func xgboostConds(n int) []condOutcome {
	e := workload.NewExecutor(workload.MustGenerate(workload.MustByName("xgboost")), 0)
	e.Skip(100_000)
	var out []condOutcome
	for i := 0; i < n; i++ {
		d := e.Next()
		if d.Static.Branch == isa.BranchCond {
			out = append(out, condOutcome{d.PC(), d.Taken})
		}
	}
	return out
}

// BenchmarkTage measures the default TAGE-SC-L predictor on one
// conditional branch of a real oracle stream: Predict, the speculative
// history update, and Train, the work the frontend and retirement do
// per conditional. ns/op is per branch; it must not allocate.
func BenchmarkTage(b *testing.B) {
	conds := xgboostConds(400_000)
	t := NewTage(DefaultTageConfig())
	step := func(c condOutcome) bool {
		pred := t.Predict(c.pc)
		t.SpecUpdate(c.pc, c.taken)
		t.Train(c.pc, c.taken, pred)
		return pred.Taken == c.taken
	}
	for _, c := range conds { // warm the tables: measure the steady state
		step(c)
	}
	correct := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if step(conds[i%len(conds)]) {
			correct++
		}
	}
	b.ReportMetric(float64(correct)/float64(b.N), "accuracy")
}
