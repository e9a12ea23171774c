package sim

import (
	"sync"
	"testing"
)

// TestConcurrentMachinesShareImage runs several machines concurrently
// over one SharedImage program under different mechanisms and salts,
// then re-runs each serially and asserts bit-identical results. Under
// `go test -race` this proves the program image is truly immutable
// after generation (executors and frontends carry all mutable state),
// which is the invariant the parallel experiment engine depends on.
func TestConcurrentMachinesShareImage(t *testing.T) {
	prof := testProfile()
	prog, err := SharedImage(prof)
	if err != nil {
		t.Fatal(err)
	}

	configs := make([]Config, 0, 6)
	for _, m := range []Mechanism{MechBaseline, MechUDP, MechUFTQATRAUR, MechEIP} {
		cfg := NewConfig(prof, m)
		cfg.MaxInstructions = 30_000
		cfg.WarmupInstructions = 5_000
		configs = append(configs, cfg)
	}
	// Same mechanism, different regions: exercises concurrent
	// executors at different phases of the same image.
	for _, salt := range []uint64{7919, 15838} {
		cfg := NewConfig(prof, MechBaseline)
		cfg.MaxInstructions = 30_000
		cfg.WarmupInstructions = 5_000
		cfg.SeedSalt = salt
		configs = append(configs, cfg)
	}

	concurrent := make([]Result, len(configs))
	var wg sync.WaitGroup
	for i, cfg := range configs {
		wg.Add(1)
		go func(i int, cfg Config) {
			defer wg.Done()
			m, err := NewMachineWithProgram(cfg, prog)
			if err != nil {
				t.Errorf("machine %d: %v", i, err)
				return
			}
			concurrent[i] = m.Run()
		}(i, cfg)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	for i, cfg := range configs {
		m, err := NewMachineWithProgram(cfg, prog)
		if err != nil {
			t.Fatal(err)
		}
		serial := m.Run()
		if concurrent[i] != serial {
			t.Errorf("config %d (%s): concurrent result differs from serial\nconcurrent: %v\nserial:     %v",
				i, cfg.Mechanism, concurrent[i], serial)
		}
	}
}

// TestConcurrentRequestPathBackpressure runs two machines over one
// SharedImage with deliberately tiny per-level MSHR files and fill
// bandwidth, so the request path is saturated with merges, retries and
// prefetch drops on both. Under `go test -race` this proves the
// two-phase request/complete path (MSHR files, fill ports, DRAM
// channel) holds no state shared across machines; afterwards each
// drained hierarchy must satisfy the fill-conservation invariant and
// the pair must be bit-identical to serial re-runs.
func TestConcurrentRequestPathBackpressure(t *testing.T) {
	prof := testProfile()
	prog, err := SharedImage(prof)
	if err != nil {
		t.Fatal(err)
	}

	mkCfg := func(salt uint64) Config {
		cfg := NewConfig(prof, MechUDP)
		cfg.MaxInstructions = 30_000
		// Warmup must be zero: ResetStats at the warmup boundary wipes
		// the request counts of fills still in flight, and when those
		// fills complete afterwards the conservation ledger no longer
		// balances. CheckCounters is only meaningful over a window with
		// no mid-flight reset.
		cfg.WarmupInstructions = 0
		cfg.SeedSalt = salt
		cfg.L2MSHRs = 2
		cfg.LLCMSHRs = 2
		cfg.L1DMSHRs = 2
		cfg.L2FillCycles = 8
		cfg.LLCFillCycles = 8
		return cfg
	}
	cfgs := []Config{mkCfg(0), mkCfg(7919)}

	results := make([]Result, len(cfgs))
	var wg sync.WaitGroup
	for i, cfg := range cfgs {
		wg.Add(1)
		go func(i int, cfg Config) {
			defer wg.Done()
			m, err := NewMachineWithProgram(cfg, prog)
			if err != nil {
				t.Errorf("machine %d: %v", i, err)
				return
			}
			results[i] = m.Run()
			m.Hier.Drain()
			if err := m.Hier.CheckCounters(); err != nil {
				t.Errorf("machine %d: %v", i, err)
			}
		}(i, cfg)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// The tiny geometry must actually have exercised backpressure.
	for i, r := range results {
		if r.Mem.DemandRetries() == 0 && r.Mem.PrefetchDrops() == 0 {
			t.Errorf("machine %d: no backpressure under 2-entry MSHR files: %+v", i, r.Mem)
		}
	}

	for i, cfg := range cfgs {
		m, err := NewMachineWithProgram(cfg, prog)
		if err != nil {
			t.Fatal(err)
		}
		if serial := m.Run(); results[i] != serial {
			t.Errorf("machine %d: concurrent result differs from serial\nconcurrent: %v\nserial:     %v",
				i, results[i], serial)
		}
	}
}

// TestSharedImageSingleflight hammers SharedImage for the same profile
// from many goroutines and asserts they all get the identical program
// pointer (one generation, no duplicated work, no torn cache state).
func TestSharedImageSingleflight(t *testing.T) {
	prof := testProfile()
	prof.Seed ^= 0xD00D // unique key so this test really generates
	const n = 8
	progs := make([]interface{ FootprintBytes() int }, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := SharedImage(prof)
			if err != nil {
				t.Errorf("goroutine %d: %v", i, err)
				return
			}
			progs[i] = p
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if progs[i] != progs[0] {
			t.Fatalf("goroutine %d received a different image instance", i)
		}
	}
}

// TestRunSimpointsParallelDeterministic asserts the parallel simpoint
// runner returns exactly the serial runner's per-region results and
// aggregate, in salt order.
func TestRunSimpointsParallelDeterministic(t *testing.T) {
	cfg := testConfig(MechBaseline)
	cfg.MaxInstructions = 20_000
	cfg.WarmupInstructions = 5_000

	serialResults, serialAgg, err := RunSimpoints(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	parResults, parAgg, err := RunSimpointsObserved(cfg, 3, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(parResults) != len(serialResults) {
		t.Fatalf("%d parallel results, %d serial", len(parResults), len(serialResults))
	}
	for i := range serialResults {
		if parResults[i] != serialResults[i] {
			t.Errorf("region %d differs:\nparallel: %v\nserial:   %v", i, parResults[i], serialResults[i])
		}
	}
	if parAgg != serialAgg {
		t.Errorf("aggregate differs:\nparallel: %v\nserial:   %v", parAgg, serialAgg)
	}
}
