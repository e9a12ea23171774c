package workload

import (
	"testing"

	"udpsim/internal/isa"
)

// gridApps are the four applications of the Fig. 13 grid the benchmark's
// grid-cold workload generates at set-up.
var gridApps = []string{"mysql", "clang", "verilator", "xgboost"}

// BenchmarkGenerate measures building one application's program image
// from its profile: the image-generation share of every cold run's
// set-up. B/op is dominated by the code array itself; see
// TestGenerateAllocBound for the ceiling it is held to.
func BenchmarkGenerate(b *testing.B) {
	for _, name := range gridApps {
		p := MustByName(name)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var instrs int
			for i := 0; i < b.N; i++ {
				instrs = MustGenerate(p).Size()
			}
			b.ReportMetric(float64(instrs), "instrs")
		})
	}
}

// BenchmarkExecutorNext measures one oracle-stream step of the synthetic
// executor over the full xgboost image, the stream every synthetic run
// retires. It must not allocate: CI's zero-alloc gate reads its
// allocs/op column.
func BenchmarkExecutorNext(b *testing.B) {
	e := NewExecutor(MustGenerate(MustByName("xgboost")), 0)
	e.Skip(100_000)
	var sink isa.Addr
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink ^= e.Next().Target
	}
	if sink == 1 {
		b.Log(sink)
	}
}
