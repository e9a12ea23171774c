package experiments

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"udpsim/internal/sim"
)

// TestRunAllBatchedMatchesUnbatched runs the same multi-image,
// multi-mechanism grid through the per-cell engine and the batched
// engine and asserts bit-for-bit identical results — the invariant that
// makes -batch a pure speed knob for every figure driver.
func TestRunAllBatchedMatchesUnbatched(t *testing.T) {
	var specs []ConfigSpec
	for _, mech := range []sim.Mechanism{sim.MechBaseline, sim.MechUDP} {
		for _, depth := range []int{16, 64} {
			specs = append(specs, ConfigSpec{Mechanism: string(mech), FTQ: depth})
		}
	}
	grid := func(string) []ConfigSpec { return specs }

	o := engineOptions(21_101)
	o.Workloads = []string{"mysql", "xgboost"}
	o.Simpoints = 2
	want, err := o.runAll(grid)
	if err != nil {
		t.Fatal(err)
	}

	// Fresh cache so the batched path actually simulates.
	FlushResultCache()
	ob := o
	ob.Batch = true
	ob.Parallelism = 3
	got, err := ob.runAll(grid)
	if err != nil {
		t.Fatal(err)
	}
	for a := range want {
		for i := range want[a] {
			if got[a][i] != want[a][i] {
				t.Errorf("cell %d/%d: batched result differs\n got: %+v\nwant: %+v", a, i, got[a][i], want[a][i])
			}
		}
	}

	// Third pass: everything must come from the in-memory cache
	// (duplicate keys resolved without simulating).
	var lines []string
	var mu sync.Mutex
	oc := ob
	oc.Progress = func(s string) { mu.Lock(); lines = append(lines, s); mu.Unlock() }
	if _, err := oc.runAll(grid); err != nil {
		t.Fatal(err)
	}
	for _, l := range lines {
		if !strings.Contains(l, "(cached)") {
			t.Errorf("expected all-cached rerun, got line %q", l)
		}
	}
}

// TestBatchedSingleflightInterop runs the same keys concurrently
// through a batched and an unbatched engine call: the batch claims
// whole key groups as one writer, the per-cell runner must either win
// a key or wait on the batch, and both must agree bit-for-bit. Under
// -race this is the regression test for the one-writer-per-batch
// locking in the engine's batch-grouping path.
func TestBatchedSingleflightInterop(t *testing.T) {
	o := engineOptions(21_102)
	grid := func(string) []ConfigSpec {
		return []ConfigSpec{mechSpec(sim.MechBaseline), mechSpec(sim.MechUDP), mechSpec(sim.MechUFTQATRAUR)}
	}

	var wg sync.WaitGroup
	results := make([][][]sim.Result, 2)
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			oo := o
			oo.Batch = i == 0
			results[i], errs[i] = oo.runAll(grid)
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	for i := range results[0][0] {
		if results[0][0][i] != results[1][0][i] {
			t.Errorf("cell %d: batched and unbatched concurrent runs disagree", i)
		}
	}
}
