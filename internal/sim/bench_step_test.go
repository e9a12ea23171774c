package sim

import (
	"testing"

	"udpsim/internal/workload"
)

// stepCell is one machine the per-cycle gates step.
type stepCell struct {
	name string
	cfg  Config
}

// stepCells are the cells the per-cycle gates step for mech: the small
// test profile, named by the mechanism alone, and the full xgboost
// profile, whose loads back up behind a full L1D MSHR file for long
// stretches and whose completions reach past the first lap of the
// backend's completion wheel.
func stepCells(mech Mechanism) []stepCell {
	x := testConfig(mech)
	x.Workload = workload.MustByName("xgboost")
	return []stepCell{{string(mech), testConfig(mech)}, {"xgboost/" + string(mech), x}}
}

// warmStepMachine builds a warmed-up machine for the per-cycle hot-loop
// gates: the image is shared, the machine has run long enough that
// caches, predictors and the frontend's scratch pools are in steady
// state, and no observer is attached (the production configuration of
// the parallel experiment grid).
func warmStepMachine(tb testing.TB, cfg Config) *Machine {
	tb.Helper()
	prog, err := SharedImage(cfg.Workload)
	if err != nil {
		tb.Fatal(err)
	}
	m, err := NewMachineWithProgram(cfg, prog)
	if err != nil {
		tb.Fatal(err)
	}
	// Warm to steady state so the gates measure the recurring per-cycle
	// cost, not cold caches or pool growth.
	m.RunInstructions(100_000)
	return m
}

// BenchmarkMachineStep measures the raw per-cycle cost of the assembled
// machine — the innermost loop every figure, sweep and experiment cell
// spins in. It must report 0 allocs/op: the parallel experiment engine
// scales with cores only if the hot loop never touches the garbage
// collector (TestMachineStepZeroAlloc gates this; CI fails on > 0).
func BenchmarkMachineStep(b *testing.B) {
	for _, mech := range []Mechanism{MechBaseline, MechUDP, MechUFTQATRAUR, MechEIP} {
		for _, c := range stepCells(mech) {
			b.Run(c.name, func(b *testing.B) {
				m := warmStepMachine(b, c.cfg)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m.Step()
				}
				b.StopTimer()
				if r := m.BE.Stats.Retired; r > 0 {
					b.ReportMetric(float64(r)/float64(b.N), "instrs/cycle")
				}
			})
		}
	}
}

// TestMachineStepZeroAlloc pins the zero-allocation invariant of the
// per-cycle hot path for every registered mechanism: after warmup,
// stepping the machine must never allocate. This is the CI gate for the
// "fast as the hardware allows" budget — any allocation on this path
// multiplies by ~10^8 cycles per experiment cell and serializes the
// parallel grid behind the garbage collector.
func TestMachineStepZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping alloc gate (needs a warmed machine)")
	}
	for _, mech := range Mechanisms() {
		for _, c := range stepCells(mech) {
			t.Run(c.name, func(t *testing.T) {
				m := warmStepMachine(t, c.cfg)
				avg := testing.AllocsPerRun(20_000, m.Step)
				if avg != 0 {
					t.Errorf("%s: Machine.Step allocates %.4f allocs/op, want 0", c.name, avg)
				}
			})
		}
	}
}
