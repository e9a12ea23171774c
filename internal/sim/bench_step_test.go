package sim

import (
	"runtime"
	"testing"

	"udpsim/internal/workload"
)

// stepCell is one machine the per-cycle gates step, and how many steps
// the zero-alloc gate watches it for.
type stepCell struct {
	name  string
	cfg   Config
	steps int
}

// stepCells are the cells the per-cycle gates step for mech: the small
// test profile, named by the mechanism alone, and the full xgboost
// profile, whose loads back up behind a full L1D MSHR file for long
// stretches and whose completions reach past the first lap of the
// backend's completion wheel.
func stepCells(mech Mechanism) []stepCell {
	x := testConfig(mech)
	x.Workload = workload.MustByName("xgboost")
	return []stepCell{{string(mech), testConfig(mech), 20_000}, {"xgboost/" + string(mech), x, 20_000}}
}

// offImageCell is mysql under the baseline, watched for 200k steps:
// long enough for its deep wrong-path walks to leave the image about
// 1,400 times, each fetching a synthetic nop.
func offImageCell() stepCell {
	cfg := testConfig(MechBaseline)
	cfg.Workload = workload.MustByName("mysql")
	return stepCell{"mysql/" + string(MechBaseline), cfg, 200_000}
}

// stepMallocs builds a warmed machine, steps it n times and returns the
// heap allocations made meanwhile. testing.AllocsPerRun floors the mean
// per call, so it reads 0 for a Step that allocates on one call in a
// thousand; this counts every allocation. The count is process-wide, so
// an allocation the runtime makes for itself now and then can land in
// the window. The simulation is deterministic, so a window that
// allocates is rebuilt and stepped once more, and only a count that
// recurs is returned.
func stepMallocs(build func() *Machine, n int) uint64 {
	got := mallocsOver(build(), n)
	if got != 0 {
		got = mallocsOver(build(), n)
	}
	return got
}

// mallocsOver steps m n times and returns the heap allocations made
// meanwhile.
func mallocsOver(m *Machine, n int) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		m.Step()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
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
// collector (TestMachineStepZeroAlloc gates this exactly; CI also fails
// on a reported allocs/op above 0, which Go rounds down).
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
// per-cycle hot path for every mechanism: after warmup,
// stepping the machine must never allocate, not once over the watched
// window. This is the CI gate for the "fast as the hardware allows"
// budget — any allocation on this path multiplies by ~10^8 cycles per
// experiment cell and serializes the parallel grid behind the garbage
// collector.
func TestMachineStepZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping alloc gate (needs a warmed machine)")
	}
	for _, mech := range Mechanisms() {
		cells := stepCells(mech)
		if mech == MechBaseline {
			cells = append(cells, offImageCell())
		}
		for _, c := range cells {
			t.Run(c.name, func(t *testing.T) {
				build := func() *Machine { return warmStepMachine(t, c.cfg) }
				if n := stepMallocs(build, c.steps); n != 0 {
					t.Errorf("%s: %d Machine.Steps made %d heap allocations, want 0", c.name, c.steps, n)
				}
			})
		}
	}
}
