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
	grid := func() []jobSpec {
		var jobs []jobSpec
		for _, app := range []string{"mysql", "xgboost"} {
			for _, mech := range []sim.Mechanism{sim.MechBaseline, sim.MechUDP} {
				for _, depth := range []int{16, 64} {
					d := depth
					jobs = append(jobs, jobSpec{app: app, mech: mech,
						mutate: func(c *sim.Config) { c.FTQDepth = d }})
				}
			}
		}
		return jobs
	}

	o := engineOptions(21_101)
	o.Workloads = nil
	o.Simpoints = 2
	want, err := o.runAll(grid())
	if err != nil {
		t.Fatal(err)
	}

	// Fresh cache so the batched path actually simulates.
	FlushResultCache()
	ob := o
	ob.Batch = true
	ob.Parallelism = 3
	got, err := ob.runAll(grid())
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("cell %d: batched result differs\n got: %+v\nwant: %+v", i, got[i], want[i])
		}
	}

	// Third pass: everything must come from the in-memory cache
	// (duplicate keys resolved without simulating).
	var lines []string
	var mu sync.Mutex
	oc := ob
	oc.Progress = func(s string) { mu.Lock(); lines = append(lines, s); mu.Unlock() }
	if _, err := oc.runAll(grid()); err != nil {
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
	grid := func() []jobSpec {
		var jobs []jobSpec
		for _, mech := range []sim.Mechanism{sim.MechBaseline, sim.MechUDP, sim.MechUFTQATRAUR} {
			jobs = append(jobs, jobSpec{app: "mysql", mech: mech})
		}
		return jobs
	}

	var wg sync.WaitGroup
	results := make([][]sim.Result, 2)
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			oo := o
			oo.Batch = i == 0
			results[i], errs[i] = oo.runAll(grid())
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	for i := range results[0] {
		if results[0][i] != results[1][i] {
			t.Errorf("cell %d: batched and unbatched concurrent runs disagree", i)
		}
	}
}
