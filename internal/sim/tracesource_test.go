package sim

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"udpsim/internal/frontend"
	"udpsim/internal/trace"
	"udpsim/internal/workload"
)

// testTraceSources memoizes registered test recordings by length so the
// equivalence, batch, and alloc tests share one decode.
var (
	testTraceMu  sync.Mutex
	testTraceSrc = map[uint64]*trace.Source{}
)

// testTraceSource records n instructions of the test profile at the
// test config's salt (0) as a UDPT2 trace, loads it back, and registers
// it under the profile's own name so Result.Workload matches the live
// run byte for byte.
func testTraceSource(t testing.TB, n uint64) *trace.Source {
	t.Helper()
	testTraceMu.Lock()
	defer testTraceMu.Unlock()
	if src, ok := testTraceSrc[n]; ok {
		return src
	}
	p := testProfile()
	var buf bytes.Buffer
	if err := trace.RecordN2(&buf, p, 0, n); err != nil {
		t.Fatal(err)
	}
	src, err := trace.LoadSourceBytes(p.Name, buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	workload.RegisterSource(src)
	testTraceSrc[n] = src
	return src
}

// traceTestConfig mirrors testConfig for the trace-driven frontend.
func traceTestConfig(t testing.TB, src *trace.Source, m Mechanism) Config {
	t.Helper()
	cfg := NewTraceConfig(src.Name(), src.SHA256(), m)
	if cfg.SeedSalt != src.Salt() {
		t.Fatalf("NewTraceConfig did not adopt the recorded salt (got %d, want %d)", cfg.SeedSalt, src.Salt())
	}
	cfg.MaxInstructions = 60_000
	cfg.WarmupInstructions = 10_000
	return cfg
}

// TestTraceSourceEquivalenceAllMechanisms is the portable-frontend
// acceptance gate: for every mechanism, a run driven by a
// UDPT2 recording must be byte-identical — the full Result struct, not
// headline metrics — to the live execution it was recorded from.
func TestTraceSourceEquivalenceAllMechanisms(t *testing.T) {
	src := testTraceSource(t, 100_000)
	for _, mech := range Mechanisms() {
		t.Run(string(mech), func(t *testing.T) {
			live, err := RunOne(testConfig(mech))
			if err != nil {
				t.Fatal(err)
			}
			m, err := NewMachine(traceTestConfig(t, src, mech))
			if err != nil {
				t.Fatal(err)
			}
			replay := m.Run()
			if !reflect.DeepEqual(live, replay) {
				t.Errorf("trace-driven result diverges from live execution:\nlive:   %+v\nreplay: %+v", live, replay)
			}
		})
	}
}

// TestTraceSourceEquivalenceBatched holds the same gate on the lockstep
// path: a batch of all mechanisms reading one trace must equal the
// identically shaped batch over the live executor's tape.
func TestTraceSourceEquivalenceBatched(t *testing.T) {
	src := testTraceSource(t, 250_000)
	mechs := Mechanisms()
	liveCfgs := make([]Config, len(mechs))
	traceCfgs := make([]Config, len(mechs))
	for i, mech := range mechs {
		liveCfgs[i] = testConfig(mech)
		traceCfgs[i] = traceTestConfig(t, src, mech)
	}
	liveRes, liveErrs := RunBatchCtx(nil, liveCfgs, 0, nil)
	traceRes, traceErrs := RunBatchCtx(nil, traceCfgs, 0, nil)
	for i, mech := range mechs {
		if liveErrs[i] != nil || traceErrs[i] != nil {
			t.Fatalf("%s: batch errors: live %v, trace %v", mech, liveErrs[i], traceErrs[i])
		}
		if !reflect.DeepEqual(liveRes[i], traceRes[i]) {
			t.Errorf("%s: batched trace-driven result diverges:\nlive:   %+v\nreplay: %+v",
				mech, liveRes[i], traceRes[i])
		}
	}
}

// TestTraceRunAheadMargin pins trace.RunAhead, the slack every trace
// consumer demands past the measured region, to the frontend: it must
// cover the oracle's window, and a trace holding exactly warmup +
// instructions + RunAhead records must replay to completion under every
// mechanism.
func TestTraceRunAheadMargin(t *testing.T) {
	if trace.RunAhead < frontend.OracleWindow {
		t.Fatalf("trace.RunAhead = %d < frontend.OracleWindow = %d", trace.RunAhead, frontend.OracleWindow)
	}
	const warmup, instrs = 1_000, 5_000
	src := testTraceSource(t, warmup+instrs+trace.RunAhead)
	for _, mech := range Mechanisms() {
		cfg := traceTestConfig(t, src, mech)
		cfg.WarmupInstructions, cfg.MaxInstructions = warmup, instrs
		m, err := NewMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res := m.Run(); res.Instructions < instrs {
			t.Errorf("%s: replayed %d instructions, want %d", mech, res.Instructions, instrs)
		}
	}
}

// TestBatchRejectsMixedSources pins the batch identity check: a live
// config and a trace config cannot share one tape.
func TestBatchRejectsMixedSources(t *testing.T) {
	src := testTraceSource(t, 100_000)
	cfgs := []Config{testConfig(MechBaseline), traceTestConfig(t, src, MechBaseline)}
	_, errs := RunBatchCtx(nil, cfgs, 0, nil)
	if errs[0] == nil && errs[1] == nil {
		t.Fatal("batch mixing a profile source with a trace source was accepted")
	}
}

// TestMachineStepZeroAllocTraceSource extends the exact-zero allocation
// gate to the trace-driven frontend: replaying decoded records must be
// as allocation-free as live execution (each replayed record points
// into the shared image, so Step touches no fresh memory).
func TestMachineStepZeroAllocTraceSource(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping alloc gate (needs a warmed machine)")
	}
	src := testTraceSource(t, 600_000)
	cfg := traceTestConfig(t, src, MechUDP)
	cfg.MaxInstructions = 500_000
	build := func() *Machine {
		m, err := NewMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m.RunInstructions(100_000)
		return m
	}
	if n := stepMallocs(build, 20_000); n != 0 {
		t.Errorf("20000 trace-driven Machine.Steps made %d heap allocations, want 0", n)
	}
}

// TestTraceRunCancellation: a canceled context must surface as an
// error from RunCtx — not a panic, not a completed run — for a trace
// source stream, whether it is canceled before the run starts or in
// the middle of it. A mid-run cancel must
// stop the run within one stride of the cycle loop, serially and in a
// lockstep batch.
func TestTraceRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	t.Run("v2-source", func(t *testing.T) {
		src := testTraceSource(t, 100_000)
		m, err := NewMachine(traceTestConfig(t, src, MechBaseline))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.RunCtx(ctx); err == nil {
			t.Fatal("canceled trace-driven run completed")
		}
	})

	// The mid-run cases cancel from the phase hook as the measured
	// region begins. cancelAtMeasure arms m that way and returns where
	// the cycle counter stood when it fired.
	cfg := traceTestConfig(t, testTraceSource(t, 100_000), MechUDP)
	cancelAtMeasure := func(m *Machine, cancel context.CancelFunc) *uint64 {
		at := new(uint64)
		m.SetPhaseHook(func(p string) {
			if p == "measure" {
				*at = m.Cycle()
				cancel()
			}
		})
		return at
	}

	t.Run("v2-source-mid-run", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		m, err := NewMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		at := cancelAtMeasure(m, cancel)
		if _, err := m.RunCtx(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("RunCtx err = %v, want context.Canceled", err)
		}
		if *at == 0 || m.Cycle()-*at > runStride {
			t.Fatalf("canceled at cycle %d, stopped at %d: more than one stride (%d)", *at, m.Cycle(), runStride)
		}
	})

	t.Run("v2-source-batch-mid-run", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var first *Machine
		var at *uint64
		_, errs := RunBatchCtx(ctx, []Config{cfg, cfg, cfg}, 1, func(k int, m *Machine) {
			if k == 0 {
				first, at = m, cancelAtMeasure(m, cancel)
			}
		})
		for k, err := range errs {
			if !errors.Is(err, context.Canceled) {
				t.Errorf("machine %d: err = %v, want context.Canceled", k, err)
			}
		}
		if *at == 0 || first.Cycle()-*at > runStride {
			t.Fatalf("canceled at cycle %d, stopped at %d: more than one stride (%d)", *at, first.Cycle(), runStride)
		}
	})
}

// TestTraceConfigKeying pins the key scheme for trace-driven configs:
// the workload segment is the content hash alone, SourceKey matches the
// registry key, and two different hashes never alias.
func TestTraceConfigKeying(t *testing.T) {
	src := testTraceSource(t, 100_000)
	cfg := traceTestConfig(t, src, MechBaseline)
	key := ConfigKey(cfg)
	wantSeg := fmt.Sprintf("w{trace=%s}", src.SHA256())
	if !bytes.Contains([]byte(key), []byte(wantSeg)) {
		t.Errorf("ConfigKey %q missing %q", key, wantSeg)
	}
	if got := SourceKey(cfg); got != src.Key() {
		t.Errorf("SourceKey = %q, want %q", got, src.Key())
	}
	other := cfg
	other.TraceRef = "0000000000000000000000000000000000000000000000000000000000000000"
	if ConfigKey(other) == key {
		t.Error("distinct trace hashes alias one config key")
	}
	live := testConfig(MechBaseline)
	if SourceKey(live) != ProfileKey(live.Workload) {
		t.Error("SourceKey of a live config is not the profile key")
	}
}
