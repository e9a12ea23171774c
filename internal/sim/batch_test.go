package sim

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"udpsim/internal/workload"
)

// TestRunBatchEquivalence is the core invariant of batched lockstep
// mode: for every mechanism, stepping the machine inside a
// batch over the shared tape yields the bit-for-bit identical Result
// (the struct is comparable) the machine produces in an independent
// run — same stream, same cycle sequence, same warmup boundary, same
// snapshot point. Both serial and parallel batch scheduling are
// checked against the unbatched simpoint runner.
func TestRunBatchEquivalence(t *testing.T) {
	mechs := Mechanisms()
	cfgs := make([]Config, len(mechs))
	for i, mech := range mechs {
		cfg := testConfig(mech)
		cfg.MaxInstructions = 25_000
		cfg.WarmupInstructions = 6_000
		cfgs[i] = cfg
	}
	const simpoints = 2

	want := make([]Result, len(cfgs))
	for i, cfg := range cfgs {
		_, agg, err := RunSimpointsCtx(context.Background(), cfg, simpoints, 1, nil)
		if err != nil {
			t.Fatalf("%s: unbatched run: %v", mechs[i], err)
		}
		want[i] = agg
	}

	for _, par := range []int{1, 4} {
		got, errs := RunBatchSimpoints(context.Background(), cfgs, simpoints, par, nil)
		for i := range cfgs {
			if errs[i] != nil {
				t.Fatalf("parallelism %d, %s: batched run: %v", par, mechs[i], errs[i])
			}
			if got[i] != want[i] {
				t.Errorf("parallelism %d, %s: batched result differs from unbatched\n got: %+v\nwant: %+v",
					par, mechs[i], got[i], want[i])
			}
		}
	}
}

// TestBatchDivergenceStress batches machines whose frontends squash and
// flush at wildly different cycles — tiny vs. huge BTBs, shallow vs.
// deep FTQs, a cold 8 KiB icache, mixed mechanisms, and one machine
// with no warmup at all — over one shared stream, and asserts each
// still reproduces its independent run exactly. This is the "wrong-path
// divergence stays local" guarantee: the tape carries only the on-path
// stream, and recovery rewinds never cross machines.
func TestBatchDivergenceStress(t *testing.T) {
	prof := testProfile()
	base := func(mech Mechanism) Config {
		cfg := NewConfig(prof, mech)
		cfg.MaxInstructions = 20_000
		cfg.WarmupInstructions = 4_000
		return cfg
	}
	var cfgs []Config
	c := base(MechBaseline)
	c.BTBEntries, c.BTBWays = 256, 4 // mispredicts constantly
	cfgs = append(cfgs, c)
	c = base(MechBaseline)
	c.FTQDepth = 8
	cfgs = append(cfgs, c)
	c = base(MechUDP)
	c.FTQDepth = 128
	cfgs = append(cfgs, c)
	c = base(MechUFTQATRAUR)
	c.ICacheBytes = 8 * 1024
	cfgs = append(cfgs, c)
	c = base(MechEIP)
	c.WarmupInstructions = 0 // measures from cycle 0
	cfgs = append(cfgs, c)
	c = base(MechUDP)
	c.Tage.TableBits = 7 // weak direction predictor: frequent squashes
	cfgs = append(cfgs, c)

	prog, err := SharedImage(prof)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]Result, len(cfgs))
	for i, cfg := range cfgs {
		m, err := NewMachineWithProgram(cfg, prog)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = m.Run()
	}
	for _, par := range []int{1, 3} {
		got, errs := RunBatchCtx(context.Background(), cfgs, par, nil)
		for i := range cfgs {
			if errs[i] != nil {
				t.Fatalf("parallelism %d, cfg %d: %v", par, i, errs[i])
			}
			if got[i] != want[i] {
				t.Errorf("parallelism %d, cfg %d: batched result differs\n got: %+v\nwant: %+v",
					par, i, got[i], want[i])
			}
		}
	}
}

// TestRunBatchPerConfigErrors asserts an invalid cell fails alone: the
// bad geometry gets its error, every other machine of the batch still
// matches its independent run.
func TestRunBatchPerConfigErrors(t *testing.T) {
	good := testConfig(MechBaseline)
	good.MaxInstructions = 8_000
	good.WarmupInstructions = 1_000
	bad := good
	bad.ICacheBytes = 48 * 1024 // 96 sets at 8 ways: not a power of two
	cfgs := []Config{good, bad}

	res, errs := RunBatchCtx(context.Background(), cfgs, 1, nil)
	if errs[1] == nil || !strings.Contains(errs[1].Error(), "geometry") {
		t.Fatalf("bad cell error = %v, want geometry error", errs[1])
	}
	if errs[0] != nil {
		t.Fatalf("good cell failed: %v", errs[0])
	}
	want, err := RunOne(good)
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != want {
		t.Errorf("good cell differs from independent run")
	}
}

// TestRunBatchRejectsMixedStreams pins the stream-identity contract:
// one tape means one (image, salt) pair.
func TestRunBatchRejectsMixedStreams(t *testing.T) {
	a := testConfig(MechBaseline)
	b := a
	b.SeedSalt = 7919
	_, errs := RunBatchCtx(context.Background(), []Config{a, b}, 1, nil)
	for _, err := range errs {
		if err == nil || !strings.Contains(err.Error(), "salt") {
			t.Fatalf("err = %v, want mixed-salt rejection", err)
		}
	}
}

// TestRunBatchCancellation asserts ctx cancellation abandons unfinished
// machines with ctx.Err() instead of simulating to completion.
func TestRunBatchCancellation(t *testing.T) {
	cfg := testConfig(MechBaseline)
	cfg.MaxInstructions = 50_000_000 // would take minutes
	cfg.WarmupInstructions = 0
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, errs := RunBatchCtx(ctx, []Config{cfg, cfg}, 1, nil)
	if time.Since(start) > 30*time.Second {
		t.Fatal("cancellation did not stop the batch promptly")
	}
	for i, err := range errs {
		if err != context.Canceled {
			t.Errorf("cfg %d: err = %v, want context.Canceled", i, err)
		}
	}
}

// TestSimpointSaltsPinned pins the simpoint salt schedule after the
// off-by-one fix: region 0 must not alias salt 0 (a plain non-simpoint
// run), and every salt must produce a distinct ConfigKey.
func TestSimpointSaltsPinned(t *testing.T) {
	want := []uint64{7919, 15838, 23757, 31676}
	for i, w := range want {
		if got := SimpointSalt(i); got != w {
			t.Errorf("SimpointSalt(%d) = %d, want %d", i, got, w)
		}
	}
	if SimpointSalt(0) == 0 {
		t.Error("simpoint 0 aliases the non-simpoint salt 0")
	}
	cfg := testConfig(MechBaseline)
	keys := map[string]int{ConfigKey(cfg): -1}
	for i := 0; i < 4; i++ {
		c := cfg
		c.SeedSalt = SimpointSalt(i)
		k := ConfigKey(c)
		if prev, dup := keys[k]; dup {
			t.Errorf("ConfigKey collision between regions %d and %d", prev, i)
		}
		keys[k] = i
	}
}

// TestMachineStepZeroAllocBatch holds the exact-zero allocation gate in
// batch mode: a machine stepping over a shared, pre-extended tape must
// allocate nothing per cycle, same as the independent hot loop. The
// batch scheduler guarantees the pre-extension (Tape.EnsureAhead before
// every slice), so chunk generation never happens inside Step.
func TestMachineStepZeroAllocBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping alloc gate (needs a warmed machine)")
	}
	for _, mech := range []Mechanism{MechBaseline, MechUDP, MechUFTQATRAUR, MechEIP} {
		t.Run(string(mech), func(t *testing.T) {
			cfg := testConfig(mech)
			prog, err := SharedImage(cfg.Workload)
			if err != nil {
				t.Fatal(err)
			}
			build := func() *Machine {
				tape := workload.NewTape(prog, cfg.SeedSalt)
				reader := tape.Reader()
				// A second reader keeps the trimming path live during
				// the measured window, as in a real batch.
				trailer := tape.Reader()
				m, err := NewMachineWithSource(cfg, prog, reader)
				if err != nil {
					t.Fatal(err)
				}
				m.RunInstructions(100_000)
				trailer.At(m.Oracle.Cursor() - 1)
				tape.EnsureAhead(m.Oracle.Cursor() + 21_000*18)
				return m
			}
			if n := stepMallocs(build, 20_000); n != 0 {
				t.Errorf("%s: 20000 batched Machine.Steps made %d heap allocations, want 0", mech, n)
			}
		})
	}
}

// BenchmarkBatchedSweep measures the tentpole speed claim: a 16-config
// single-image sweep run as one lockstep batch versus 16 independent
// sequential runs. The batch wins on two axes — the architectural
// stream is produced once instead of 16 times, and the lockstep
// scheduler spreads the machines over all cores while the independent
// baseline (like the engine's per-cell runner) steps one machine at a
// time per worker. The reported "speedup" metric is gated >= 3 in CI on
// multi-core runners; on a single core only the stream-sharing term
// remains.
func BenchmarkBatchedSweep(b *testing.B) {
	prof := testProfile()
	prog, err := SharedImage(prof)
	if err != nil {
		b.Fatal(err)
	}
	mechs := []Mechanism{MechBaseline, MechUDP, MechUFTQATRAUR, MechEIP}
	depths := []int{16, 32, 64, 128}
	var cfgs []Config
	for _, mech := range mechs {
		for _, d := range depths {
			cfg := NewConfig(prof, mech)
			cfg.MaxInstructions = 40_000
			cfg.WarmupInstructions = 10_000
			cfg.FTQDepth = d
			cfgs = append(cfgs, cfg)
		}
	}
	totalInstrs := float64(len(cfgs)) * 50_000

	var serial, batched time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		for _, cfg := range cfgs {
			m, err := NewMachineWithProgram(cfg, prog)
			if err != nil {
				b.Fatal(err)
			}
			m.Run()
		}
		serial += time.Since(t0)

		t1 := time.Now()
		_, errs := RunBatch(cfgs, runtime.GOMAXPROCS(0))
		batched += time.Since(t1)
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	n := float64(b.N)
	b.ReportMetric(totalInstrs*n/batched.Seconds()/1e6, "batched-Minstrs/s")
	b.ReportMetric(totalInstrs*n/serial.Seconds()/1e6, "independent-Minstrs/s")
	b.ReportMetric(serial.Seconds()/batched.Seconds(), "speedup")
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "cores")
}
