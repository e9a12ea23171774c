// Ablation benchmarks for the design choices DESIGN.md calls out:
// UDP's two off-path triggers, the super-line compression, the
// confidence threshold, the Seniority-FTQ capacity, and the useful-set
// storage bound. Each reports the IPC delta against the same-run
// UDP default so `go test -bench=Ablation` prints a self-contained
// ablation table.
package udpsim_test

import (
	"fmt"
	"testing"

	"udpsim"
	"udpsim/internal/sim"
	"udpsim/internal/workload"
)

// ablationConfig is a mid-size xgboost-like run where UDP's decisions
// matter most (heavy wrong-path activity).
func ablationConfig(mech udpsim.Mechanism) udpsim.Config {
	p := workload.MustByName("xgboost")
	if testing.Short() {
		p.Funcs = 200
		p.DispatchTargets = 180
	}
	cfg := udpsim.NewConfigFor(p, mech)
	cfg.MaxInstructions = 150_000
	cfg.WarmupInstructions = 400_000
	return cfg
}

func runAblation(b *testing.B, mutate func(*udpsim.Config)) float64 {
	b.Helper()
	cfg := ablationConfig(udpsim.MechUDP)
	if mutate != nil {
		mutate(&cfg)
	}
	var ipc float64
	for i := 0; i < b.N; i++ {
		r, err := sim.RunOne(cfg)
		if err != nil {
			b.Fatal(err)
		}
		ipc = r.IPC
	}
	return ipc
}

func BenchmarkAblationUDPDefault(b *testing.B) {
	ipc := runAblation(b, nil)
	b.ReportMetric(ipc, "IPC")
}

func BenchmarkAblationNoHiddenTrigger(b *testing.B) {
	ipc := runAblation(b, func(c *udpsim.Config) {
		c.UDP.DisableHiddenTrigger = true
	})
	b.ReportMetric(ipc, "IPC")
}

func BenchmarkAblationConfidenceThreshold(b *testing.B) {
	for _, th := range []int{2, 8, 24} {
		th := th
		b.Run(benchName("threshold", th), func(b *testing.B) {
			ipc := runAblation(b, func(c *udpsim.Config) {
				c.UDP.ConfidenceThreshold = th
			})
			b.ReportMetric(ipc, "IPC")
		})
	}
}

func BenchmarkAblationSeniorityCapacity(b *testing.B) {
	for _, n := range []int{16, 128, 1024} {
		n := n
		b.Run(benchName("entries", n), func(b *testing.B) {
			ipc := runAblation(b, func(c *udpsim.Config) {
				c.UDP.SeniorityEntries = n
			})
			b.ReportMetric(ipc, "IPC")
		})
	}
}

func BenchmarkAblationInfiniteStorage(b *testing.B) {
	cfg := ablationConfig(udpsim.MechUDPInfinite)
	var ipc float64
	for i := 0; i < b.N; i++ {
		r, err := sim.RunOne(cfg)
		if err != nil {
			b.Fatal(err)
		}
		ipc = r.IPC
	}
	b.ReportMetric(ipc, "IPC")
}

func BenchmarkAblationFlushThreshold(b *testing.B) {
	// The paper notes a more conservative flush policy may suit
	// verilator-like workloads; sweep the outcome window (proxy for
	// flush aggressiveness).
	for _, w := range []int{64, 256, 1024} {
		w := w
		b.Run(benchName("window", w), func(b *testing.B) {
			ipc := runAblation(b, func(c *udpsim.Config) {
				c.UDP.OutcomeWindow = w
			})
			b.ReportMetric(ipc, "IPC")
		})
	}
}

func benchName(k string, v int) string { return fmt.Sprintf("%s_%d", k, v) }

// BenchmarkAblationPredecodeBTBFill measures the Boomerang-style BTB
// fill extension alone and composed with UDP.
func BenchmarkAblationPredecodeBTBFill(b *testing.B) {
	for _, spec := range []struct {
		name string
		mech udpsim.Mechanism
		fill bool
	}{
		{"baseline", udpsim.MechBaseline, false},
		{"btbfill", udpsim.MechBaseline, true},
		{"udp_btbfill", udpsim.MechUDP, true},
	} {
		spec := spec
		b.Run(spec.name, func(b *testing.B) {
			cfg := ablationConfig(spec.mech)
			cfg.PredecodeBTBFill = spec.fill
			var ipc float64
			for i := 0; i < b.N; i++ {
				r, err := sim.RunOne(cfg)
				if err != nil {
					b.Fatal(err)
				}
				ipc = r.IPC
			}
			b.ReportMetric(ipc, "IPC")
		})
	}
}
