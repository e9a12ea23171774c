// Benchmark harness: one benchmark per evaluation table/figure of the
// paper, regenerating its rows through internal/experiments, plus
// simulator-throughput microbenchmarks.
//
//	go test -bench=. -benchmem                 # everything, quick fidelity
//	go test -bench=Fig13 -benchfidelity=full   # paper-fidelity UDP figure
//
// Figure benchmarks report the headline quantity of their figure as a
// custom metric (speedup %, MPKI, ratio) so `go test -bench` output
// doubles as a results table. Results are deterministic; repeated
// iterations are served from the experiments result cache, so ns/op is
// only meaningful for the first iteration.
package udpsim_test

import (
	"flag"
	"fmt"
	"testing"

	"udpsim"
	"udpsim/internal/experiments"
	"udpsim/internal/sim"
	"udpsim/internal/workload"
)

var benchFidelity = flag.String("benchfidelity", "quick", "figure benchmark fidelity: quick or full")

// benchOptions picks the simulation effort for figure benchmarks. The
// quick setting exercises every code path of each figure in seconds;
// full matches cmd/figures' evaluation fidelity.
func benchOptions() experiments.Options {
	if *benchFidelity == "full" {
		return experiments.DefaultOptions()
	}
	o := experiments.QuickOptions()
	// A representative 4-app subset keeps quick benches fast while
	// spanning the workload space: a server, a compiler, and the two
	// extreme cases.
	o.Workloads = []string{"mysql", "clang", "verilator", "xgboost"}
	return o
}

func reportSpeedups(b *testing.B, rows []experiments.BarRow, series string) {
	b.Helper()
	sum := 0.0
	for _, r := range rows {
		v := r.Values[series] * 100
		b.ReportMetric(v, r.App+"_"+series+"_%")
		sum += v
	}
	if len(rows) > 0 {
		b.ReportMetric(sum/float64(len(rows)), "avg_"+series+"_%")
	}
}

func BenchmarkTable2Config(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := sim.NewConfig(workload.MustByName("mysql"), sim.MechBaseline)
		if cfg.BTBEntries != 8192 || cfg.ROBSize != 352 {
			b.Fatal("Table II defaults drifted")
		}
	}
}

func BenchmarkTable3OptimalFTQ(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		rows, corrU, _, err := experiments.Table3(o)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.ReportMetric(float64(r.OptimalFTQ), r.App+"_optFTQ")
			}
			b.ReportMetric(corrU, "corr_utility")
		}
	}
}

func BenchmarkFig01PerfectIcache(b *testing.B) {
	o := benchOptions()
	var rows []experiments.BarRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Figure1(o)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSpeedups(b, rows, "perfect-icache")
}

func BenchmarkFig03FTQSweep(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		_, optima, err := experiments.Figure3(o)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for app, d := range optima {
				b.ReportMetric(float64(d), app+"_optFTQ")
			}
		}
	}
}

func benchSweep(b *testing.B, run func(experiments.Options) ([]experiments.SweepSeries, error), metric string) {
	b.Helper()
	o := benchOptions()
	var series []experiments.SweepSeries
	var err error
	for i := 0; i < b.N; i++ {
		series, err = run(o)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, s := range series {
		if len(s.Values) > 0 {
			b.ReportMetric(s.Values[len(s.Values)-1], s.App+"_"+metric+"_at_max")
		}
	}
}

func BenchmarkFig04Timeliness(b *testing.B) {
	benchSweep(b, experiments.Figure4, "timeliness")
}

func BenchmarkFig05OnOffPath(b *testing.B) {
	benchSweep(b, experiments.Figure5, "onpath")
}

func BenchmarkFig06Usefulness(b *testing.B) {
	benchSweep(b, experiments.Figure6, "usefulness")
}

func BenchmarkFig08Occupancy(b *testing.B) {
	benchSweep(b, experiments.Figure8, "occupancy")
}

func BenchmarkFig11UFTQ(b *testing.B) {
	o := benchOptions()
	var rows []experiments.BarRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, _, err = experiments.Figure11(o)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSpeedups(b, rows, string(sim.MechUFTQATRAUR))
}

func BenchmarkFig12UFTQMisses(b *testing.B) {
	o := benchOptions()
	var rows []experiments.BarRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Figure12(o)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.Values[string(sim.MechUFTQATRAUR)], r.App+"_MPKI")
	}
}

func BenchmarkFig13UDP(b *testing.B) {
	o := benchOptions()
	var rows []experiments.BarRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Figure13(o)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSpeedups(b, rows, "udp")
	reportSpeedups(b, rows, "udp-infinite")
}

func BenchmarkFig14MPKI(b *testing.B) {
	o := benchOptions()
	var rows []experiments.BarRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Figure14(o)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.Values["udp"], r.App+"_udp_MPKI")
	}
}

func BenchmarkFig15LostInstr(b *testing.B) {
	o := benchOptions()
	var rows []experiments.BarRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Figure15(o)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.Values["udp"], r.App+"_udp_lostPKI")
	}
}

func BenchmarkFig16BTBSensitivity(b *testing.B) {
	o := benchOptions()
	o.Workloads = []string{"xgboost", "mysql"} // BTB sweep is 2 runs per point
	var series []experiments.SweepSeries
	for i := 0; i < b.N; i++ {
		var err error
		series, err = experiments.Figure16(o)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, s := range series {
		b.ReportMetric(s.Values[0]*100, s.App+"_udp_at_1K_BTB_%")
	}
}

func BenchmarkFig17FTQSensitivity(b *testing.B) {
	o := benchOptions()
	o.Workloads = []string{"verilator", "xgboost"}
	var series []experiments.SweepSeries
	for i := 0; i < b.N; i++ {
		var err error
		series, err = experiments.Figure17(o)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, s := range series {
		b.ReportMetric(s.Values[len(s.Values)-1]*100, s.App+"_udp_at_128_FTQ_%")
	}
}

// --- simulator throughput microbenchmarks ---

// BenchmarkSimulatorThroughput measures simulated instructions per
// wall-clock second for each mechanism on a mid-size workload.
func BenchmarkSimulatorThroughput(b *testing.B) {
	p := workload.MustByName("mysql")
	p.Funcs = 200
	p.DispatchTargets = 150
	for _, mech := range []udpsim.Mechanism{udpsim.MechBaseline, udpsim.MechUDP, udpsim.MechUFTQATRAUR} {
		b.Run(string(mech), func(b *testing.B) {
			cfg := udpsim.NewConfigFor(p, mech)
			cfg.WarmupInstructions = 0
			m, err := udpsim.NewMachine(cfg)
			if err != nil {
				b.Fatal(err)
			}
			const chunk = 10_000
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.RunInstructions(chunk)
			}
			b.SetBytes(0)
			b.ReportMetric(float64(chunk*b.N)/b.Elapsed().Seconds()/1e6, "Minstr/s")
		})
	}
}

// BenchmarkImageGeneration measures synthetic program image build time.
func BenchmarkImageGeneration(b *testing.B) {
	p := workload.MustByName("mysql")
	for i := 0; i < b.N; i++ {
		p.Seed = uint64(i) + 1 // defeat any caching
		if _, err := workload.Generate(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOracleExecution measures raw architectural execution speed.
func BenchmarkOracleExecution(b *testing.B) {
	p := workload.MustByName("mysql")
	p.Funcs = 200
	p.DispatchTargets = 150
	prog, err := workload.Generate(p)
	if err != nil {
		b.Fatal(err)
	}
	e := workload.NewExecutor(prog, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Next()
	}
}

// sanity check that quick bench options stay valid if defaults change.
func TestBenchOptionsValid(t *testing.T) {
	o := benchOptions()
	if o.Instructions == 0 || len(o.Workloads) == 0 {
		t.Fatalf("bench options degenerate: %+v", o)
	}
	for _, w := range o.Workloads {
		if _, err := udpsim.WorkloadProfile(w); err != nil {
			t.Fatal(err)
		}
	}
	_ = fmt.Sprintf
}
