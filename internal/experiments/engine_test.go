package experiments

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"udpsim/internal/obs"
	"udpsim/internal/sim"
	"udpsim/internal/trace"
	"udpsim/internal/workload"
)

// engineOptions returns options with instruction counts unique enough
// that the tests below exercise fresh resultCache keys even when other
// tests in the package have already populated the cache.
func engineOptions(instrs uint64) Options {
	return Options{
		Instructions: instrs,
		Warmup:       10_000,
		Simpoints:    1,
		Workloads:    []string{"mysql"},
	}
}

// TestSingleflightDeduplicatesConcurrentRuns issues the same experiment
// key from two goroutines at once and asserts exactly one simulation
// happened (one untagged progress line) while the other caller was
// served by the in-flight runner (one "(cached)" line), with identical
// results. Run with -race this also exercises the engine's locking.
func TestSingleflightDeduplicatesConcurrentRuns(t *testing.T) {
	o := engineOptions(21_001)
	var mu sync.Mutex
	var lines []string
	o.Progress = func(s string) {
		mu.Lock()
		lines = append(lines, s)
		mu.Unlock()
	}

	var wg sync.WaitGroup
	results := make([]sim.Result, 2)
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = o.run("mysql", mechSpec(sim.MechBaseline))
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	if results[0] != results[1] {
		t.Errorf("deduplicated callers saw different results:\n%v\n%v", results[0], results[1])
	}
	if len(lines) != 2 {
		t.Fatalf("%d progress lines, want 2: %q", len(lines), lines)
	}
	cached := 0
	for _, l := range lines {
		if strings.Contains(l, "(cached)") {
			cached++
		}
	}
	if cached != 1 {
		t.Errorf("want exactly 1 cached + 1 simulated line, got %d cached: %q", cached, lines)
	}
}

// TestRunAllDeterministicOrder submits a grid whose cells are
// distinguishable by FinalFTQDepth and asserts the parallel engine
// returns them in input-grid positions.
func TestRunAllDeterministicOrder(t *testing.T) {
	o := engineOptions(21_002)
	o.Parallelism = 4
	depths := []int{8, 12, 16, 24, 48, 64}
	var specs []ConfigSpec
	for _, d := range depths {
		specs = append(specs, ConfigSpec{Mechanism: "baseline", FTQ: d})
	}
	grid := func(string) []ConfigSpec { return specs }
	results, err := o.runAll(grid)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || len(results[0]) != len(depths) {
		t.Fatalf("results shape %d×%d for 1×%d cells", len(results), len(results[0]), len(depths))
	}
	for i, d := range depths {
		if results[0][i].FinalFTQDepth != d {
			t.Errorf("slot %d: FTQ depth %d, want %d (results out of grid order)",
				i, results[0][i].FinalFTQDepth, d)
		}
	}

	// A second pass at a different parallelism must be value-identical
	// (fully cache-served) and in the same order.
	o2 := o
	o2.Parallelism = 1
	again, err := o2.runAll(grid)
	if err != nil {
		t.Fatal(err)
	}
	for i := range results[0] {
		if again[0][i] != results[0][i] {
			t.Errorf("slot %d differs between parallelism 4 and 1", i)
		}
	}
}

// TestRunAllAggregatesErrors asserts a failing cell doesn't hide other
// cells' failures and that good cells still complete.
func TestRunAllAggregatesErrors(t *testing.T) {
	o := engineOptions(21_003)
	o.Parallelism = 2
	_, err := o.runAll(func(string) []ConfigSpec {
		return []ConfigSpec{{Mechanism: "baseline"}, {Mechanism: "warp-drive"}, {Mechanism: "flux-capacitor"}}
	})
	if err == nil {
		t.Fatal("invalid mechanisms accepted")
	}
	if !strings.Contains(err.Error(), "warp-drive") || !strings.Contains(err.Error(), "flux-capacitor") {
		t.Errorf("errors not aggregated: %v", err)
	}
}

func TestForEach(t *testing.T) {
	for _, workers := range []int{0, 1, 3} {
		n := 17
		out := make([]int, n)
		err := ForEach(n, workers, func(i int) error {
			out[i] = i * i
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range out {
			if out[i] != i*i {
				t.Errorf("workers=%d: slot %d = %d", workers, i, out[i])
			}
		}
	}
	err := ForEach(4, 2, func(i int) error {
		if i%2 == 1 {
			return errors.New("odd")
		}
		return nil
	})
	if err == nil {
		t.Fatal("errors swallowed")
	}
}

func TestNormalizeSweepErrors(t *testing.T) {
	good := []SweepSeries{{App: "a", X: []int{16, 32}, Values: []float64{1.0, 2.0}}}
	if err := normalizeSweep(good, 32); err != nil {
		t.Fatal(err)
	}
	if good[0].Values[1] != 0 || good[0].Values[0] != -0.5 {
		t.Errorf("normalization wrong: %+v", good[0].Values)
	}

	missing := []SweepSeries{{App: "a", X: []int{16, 64}, Values: []float64{1.0, 2.0}}}
	if err := normalizeSweep(missing, 32); err == nil {
		t.Error("missing baseline accepted")
	}
	zero := []SweepSeries{{App: "a", X: []int{16, 32}, Values: []float64{1.0, 0}}}
	if err := normalizeSweep(zero, 32); err == nil {
		t.Error("zero baseline accepted")
	}
}

// TestParallelismDefault ensures Parallelism <= 0 resolves to a
// positive pool width.
func TestParallelismDefault(t *testing.T) {
	var o Options
	if o.parallelism() < 1 {
		t.Errorf("default parallelism %d", o.parallelism())
	}
	o.Parallelism = 3
	if o.parallelism() != 3 {
		t.Errorf("explicit parallelism ignored: %d", o.parallelism())
	}
}

// TestIntervalSamplesSumPerConfig carries the interval sampler's sum
// invariant (sim's TestIntervalSamplesSumToInstructions) through the
// engine: in a grid of two configs sharing one workload and mechanism,
// each config's samples carry its label as their config tag, and each
// label's retired deltas sum to that cell's Result.Instructions,
// batched or not.
func TestIntervalSamplesSumPerConfig(t *testing.T) {
	d := &Descriptor{
		Name:         "interval-sum",
		Workloads:    []string{"mysql"},
		Instructions: 31_234,
		Warmup:       10_000,
		Configs: []ConfigSpec{
			{Label: "btb1024", Mechanism: "baseline", BTB: 1024},
			{Label: "btb16384", Mechanism: "baseline", BTB: 16384},
		},
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, batch := range []bool{false, true} {
		FlushResultCache() // cached cells emit no samples
		var mu sync.Mutex
		sums := map[string]uint64{}
		opts := Options{Batch: batch, Interval: 5_000, OnSample: func(s obs.IntervalSample) {
			mu.Lock()
			defer mu.Unlock()
			if s.Workload != "mysql" || s.Mechanism != "baseline" {
				t.Errorf("sample tagged %s/%s", s.Workload, s.Mechanism)
			}
			sums[s.Config] += s.Retired
		}}
		res, err := RunDescriptorObserved(d, nil, 2, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(sums) != len(res) {
			t.Errorf("batch=%v: samples carry configs %v, want one per cell", batch, sums)
		}
		for _, r := range res {
			if got := sums[r.Label]; got != r.Result.Instructions {
				t.Errorf("batch=%v: %s: Σ retired = %d, want Result.Instructions = %d",
					batch, r.Label, got, r.Result.Instructions)
			}
		}
	}
}

// sampleSums runs Sample and returns each config label's Σ retired and
// its samples with the workload tag cleared.
func sampleSums(t *testing.T, o Options, w string, specs []ConfigSpec) (map[string]uint64, map[string][]obs.IntervalSample) {
	t.Helper()
	var mu sync.Mutex
	sums := map[string]uint64{}
	samples := map[string][]obs.IntervalSample{}
	o.Interval = 5_000
	o.OnSample = func(s obs.IntervalSample) {
		mu.Lock()
		defer mu.Unlock()
		sums[s.Config] += s.Retired
		s.Workload = ""
		samples[s.Config] = append(samples[s.Config], s)
	}
	if err := Sample(o, w, specs); err != nil {
		t.Fatal(err)
	}
	return sums, samples
}

// TestSampleSimulatesCachedCells checks that Sample emits a full region
// of samples for a cell the result cache already holds, which the
// cached grid path does not: Σ retired equals the cached result's
// instructions.
func TestSampleSimulatesCachedCells(t *testing.T) {
	o := tinyOptions()
	o.Instructions = 23_456
	specs := []ConfigSpec{mechSpec(sim.MechBaseline), mechSpec(sim.MechUDP)}
	results := map[string]sim.Result{}
	for _, cs := range specs {
		r, err := o.run("mysql", cs)
		if err != nil {
			t.Fatal(err)
		}
		results[cs.Label] = r
	}
	sums, _ := sampleSums(t, o, "mysql", specs)
	for _, cs := range specs {
		if got, want := sums[cs.Label], results[cs.Label].Instructions; got != want {
			t.Errorf("%s: Σ retired = %d, want the cached Result.Instructions = %d", cs.Label, got, want)
		}
	}
	if err := Sample(o, "trace:nope", specs); err == nil {
		t.Error("sampling an unloaded trace succeeded")
	}
	if err := Sample(o, "nope", specs); err == nil {
		t.Error("sampling an unknown workload succeeded")
	}
}

// TestSampleTrace checks that Sample runs a trace workload: a trace of
// mysql recorded at the first simpoint's salt samples exactly like the
// synthetic mysql.
func TestSampleTrace(t *testing.T) {
	o := tinyOptions()
	var buf bytes.Buffer
	n := o.Warmup + o.Instructions + trace.RunAhead
	if err := trace.RecordN2(&buf, workload.MustByName("mysql"), sim.SimpointSalt(0), n); err != nil {
		t.Fatal(err)
	}
	src, err := trace.LoadSourceBytes("sample-mysql", buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	workload.RegisterSource(src)
	o.Workloads = []string{"trace:sample-mysql"}
	specs := []ConfigSpec{mechSpec(sim.MechBaseline)}
	_, traced := sampleSums(t, o, "trace:sample-mysql", specs)
	_, synthetic := sampleSums(t, o, "mysql", specs)
	if len(traced["baseline"]) == 0 || !reflect.DeepEqual(traced, synthetic) {
		t.Errorf("trace samples %+v differ from the synthetic run's %+v", traced, synthetic)
	}
}
