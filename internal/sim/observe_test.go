package sim

import (
	"bytes"
	"testing"

	"udpsim/internal/obs"
)

// TestIntervalSamplesSumToInstructions pins the interval sampler's core
// accounting invariant: the per-sample retired deltas of a measured run
// sum exactly to Result.Instructions (warmup samples are suppressed and
// the final partial interval is flushed).
func TestIntervalSamplesSumToInstructions(t *testing.T) {
	cfg := testConfig(MechBaseline)
	var samples []obs.IntervalSample
	attach := func(region int, m *Machine) {
		m.AttachObserver(&obs.Observer{Interval: 5_000, OnSample: func(s obs.IntervalSample) { samples = append(samples, s) }})
	}
	results, agg, err := RunSimpointsObserved(cfg, 1, 1, attach)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("no interval samples recorded")
	}
	var sum uint64
	var lastCycle uint64
	for i, s := range samples {
		sum += s.Retired
		if s.Cycle <= lastCycle {
			t.Errorf("sample %d: cycle %d not increasing (prev %d)", i, s.Cycle, lastCycle)
		}
		lastCycle = s.Cycle
		if s.Workload != cfg.Workload.Name || s.Mechanism != string(MechBaseline) {
			t.Errorf("sample %d: run tags %q/%q", i, s.Workload, s.Mechanism)
		}
	}
	if sum != agg.Instructions {
		t.Fatalf("Σ retired deltas = %d, want Result.Instructions = %d", sum, agg.Instructions)
	}
	if last := samples[len(samples)-1]; last.RetiredTotal != agg.Instructions {
		t.Errorf("final RetiredTotal = %d, want %d", last.RetiredTotal, agg.Instructions)
	}
	_ = results
}

// TestLifecycleSummaryInResult checks that an attached Lifecycle
// tracker surfaces in Result.Lifecycle with self-consistent counts.
func TestLifecycleSummaryInResult(t *testing.T) {
	cfg := testConfig(MechBaseline)
	attach := func(region int, m *Machine) {
		m.AttachObserver(&obs.Observer{Life: obs.NewLifecycle()})
	}
	_, agg, err := RunSimpointsObserved(cfg, 1, 1, attach)
	if err != nil {
		t.Fatal(err)
	}
	lc := agg.Lifecycle
	if !lc.Tracked {
		t.Fatal("Result.Lifecycle not tracked")
	}
	if lc.Emitted == 0 || lc.FirstUses == 0 {
		t.Fatalf("no lifecycle activity: %+v", lc)
	}
	if lc.TimelyUses+lc.LateUses != lc.FirstUses {
		t.Errorf("timely %d + late %d != first-uses %d", lc.TimelyUses, lc.LateUses, lc.FirstUses)
	}
	if r := lc.LateRatio(); r < 0 || r > 1 {
		t.Errorf("LateRatio = %v out of [0,1]", r)
	}
	// An unobserved run must not report lifecycle data.
	plain, err := RunOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Lifecycle.Tracked {
		t.Error("unobserved run has Tracked lifecycle")
	}
}

// TestConcurrentIntervalSampling runs parallel regions streaming into
// one shared MetricsWriter — under `go test -race` this is the
// observability layer's concurrency guard (per-machine observers, fan-in
// serialized at the sink).
func TestConcurrentIntervalSampling(t *testing.T) {
	cfg := testConfig(MechUDP)
	var buf bytes.Buffer
	mw := obs.NewMetricsWriter(&buf, obs.FormatCSV)
	attach := func(region int, m *Machine) {
		m.AttachObserver(&obs.Observer{
			Interval: 5_000,
			OnSample: func(s obs.IntervalSample) { _ = mw.Write(s) },
			Life:     obs.NewLifecycle(),
		})
	}
	const regions = 4
	results, agg, err := RunSimpointsObserved(cfg, regions, regions, attach)
	if err != nil {
		t.Fatal(err)
	}
	if err := mw.Err(); err != nil {
		t.Fatalf("metrics writer: %v", err)
	}
	if len(results) != regions {
		t.Fatalf("results = %d, want %d", len(results), regions)
	}
	if mw.Rows() == 0 {
		t.Fatal("no samples streamed")
	}
	if !agg.Lifecycle.Tracked {
		t.Error("aggregated lifecycle not tracked")
	}
	// Deterministic per-region salts keep concurrent rows attributable.
	if results[0].Instructions == 0 {
		t.Error("region 0 retired nothing")
	}
}

// TestAttachObserverDetach checks that attaching nil fully detaches the
// observer from the machine and its mechanisms.
func TestAttachObserverDetach(t *testing.T) {
	m, err := NewMachine(testConfig(MechUDP))
	if err != nil {
		t.Fatal(err)
	}
	o := &obs.Observer{Interval: 1_000}
	m.AttachObserver(o)
	if m.Observer() != o || m.FE.Obs != o || m.UDP().Obs != o {
		t.Fatal("observer not threaded through")
	}
	if o.Workload == "" || o.Mechanism != string(MechUDP) {
		t.Fatalf("run tags not stamped: %+v", o)
	}
	m.AttachObserver(nil)
	if m.Observer() != nil || m.FE.Obs != nil || m.UDP().Obs != nil {
		t.Fatal("observer not detached")
	}
	m.RunInstructions(1_000) // must not panic with detached observer
}

// BenchmarkSimObsOverhead quantifies the observability tax: "off" is
// the production configuration (nil observer — the nil-guarded hooks
// must cost nothing measurable and allocate nothing), "sampled" adds
// the interval sampler, "full" adds event tracing and lifecycle
// tracking. CI compares off against the seed throughput benchmark.
func BenchmarkSimObsOverhead(b *testing.B) {
	mk := func(b *testing.B) *Machine {
		cfg := testConfig(MechUDP)
		cfg.WarmupInstructions = 0
		m, err := NewMachine(cfg)
		if err != nil {
			b.Fatal(err)
		}
		return m
	}
	const chunk = 10_000
	bench := func(b *testing.B, attach func(*Machine)) {
		m := mk(b)
		if attach != nil {
			attach(m)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.RunInstructions(chunk)
		}
		b.ReportMetric(float64(chunk*b.N)/b.Elapsed().Seconds()/1e6, "Minstr/s")
	}
	b.Run("off", func(b *testing.B) { bench(b, nil) })
	b.Run("sampled", func(b *testing.B) {
		bench(b, func(m *Machine) {
			m.AttachObserver(&obs.Observer{Interval: 10_000})
		})
	})
	b.Run("full", func(b *testing.B) {
		bench(b, func(m *Machine) {
			m.AttachObserver(&obs.Observer{
				Interval: 10_000,
				Trace:    obs.NewTracer(1 << 16),
				Life:     obs.NewLifecycle(),
			})
		})
	})
}
