package experiments

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"udpsim/internal/obs"
	"udpsim/internal/sim"
)

// TestForEachCtxCancel verifies the worker-pool primitive stops
// scheduling new iterations once the context is canceled.
func TestForEachCtxCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	err := ForEachCtx(ctx, 1000, 2, func(i int) error {
		if ran.Add(1) == 3 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n >= 1000 {
		t.Fatalf("ForEachCtx ran all %d iterations despite cancellation", n)
	}
}

// TestForEachCtxNilContext keeps the legacy no-context path working.
func TestForEachCtxNilContext(t *testing.T) {
	var ran atomic.Int64
	if err := ForEach(10, 4, func(i int) error { ran.Add(1); return nil }); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 10 {
		t.Fatalf("ran %d iterations, want 10", ran.Load())
	}
}

// TestRunConfigCancelMidSimulation is the satellite's headline test: a
// context canceled while a simulation is in flight interrupts the
// machine loop (cooperative poll), propagates context.Canceled, and
// caches nothing — a rerun simulates from scratch.
func TestRunConfigCancelMidSimulation(t *testing.T) {
	FlushResultCache()
	ctx, cancel := context.WithCancel(context.Background())
	o := Options{
		// Far more instructions than the test will simulate; the run
		// must end by cancellation, not completion.
		Instructions: 2_000_000_000,
		Warmup:       10_000,
		Simpoints:    1,
		Context:      ctx,
	}
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := o.run("mysql", mechSpec(sim.MechBaseline))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancellation took %s — cooperative poll not working", elapsed)
	}
	// The aborted run must not have poisoned the cache: a fresh, small
	// run under the same options shape completes normally.
	FlushResultCache()
	o2 := Options{Instructions: 30_000, Warmup: 5_000, Simpoints: 1}
	r, err := o2.run("mysql", mechSpec(sim.MechBaseline))
	if err != nil {
		t.Fatalf("rerun after cancel: %v", err)
	}
	if r.IPC <= 0 {
		t.Fatalf("rerun IPC = %v", r.IPC)
	}
}

// TestRunConfigPreCanceled: an already-canceled context fails fast
// without simulating.
func TestRunConfigPreCanceled(t *testing.T) {
	FlushResultCache()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o := Options{Instructions: 1_000_000, Simpoints: 1, Context: ctx}
	start := time.Now()
	_, err := o.run("mysql", mechSpec(sim.MechBaseline))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("pre-canceled run did not fail fast")
	}
}

// TestRunDescriptorObservedCancel cancels a whole descriptor grid.
func TestRunDescriptorObservedCancel(t *testing.T) {
	FlushResultCache()
	ctx, cancel := context.WithCancel(context.Background())
	d := &Descriptor{
		Name:         "cancel-grid",
		Workloads:    []string{"mysql"},
		Instructions: 2_000_000_000,
		Simpoints:    1,
		Configs:      []ConfigSpec{{Label: "base", Mechanism: "baseline"}},
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	_, err := RunDescriptorObserved(d, nil, 1, Options{Context: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestCanceledRunnerDoesNotFailWaiters: a runner claims every key it
// will simulate up front. When its own context cancels it before it
// reaches a claimed key, a caller waiting on that key with a live
// context resolves the cell itself instead of inheriting the
// cancellation.
func TestCanceledRunnerDoesNotFailWaiters(t *testing.T) {
	FlushResultCache()
	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	oB := Options{Instructions: 21_201, Warmup: 2_000, Simpoints: 1, Workloads: []string{"mysql"}}
	oA := oB
	oA.Context = ctxA
	oA.Parallelism = 1

	// A simulates its first cell while holding the claim on the shared
	// second one; once that first cell's warmup ends, B joins the
	// shared key and A is canceled.
	var once sync.Once
	var bRes sim.Result
	var bErr error
	bDone := make(chan struct{})
	oA.OnSpan = func(sp obs.Span) {
		if sp.Name != "warmup" {
			return
		}
		once.Do(func() {
			waits := obs.CacheInflightWaits.Value()
			go func() {
				bRes, bErr = oB.run("mysql", mechSpec(sim.MechBaseline))
				close(bDone)
			}()
			for deadline := time.Now().Add(10 * time.Second); obs.CacheInflightWaits.Value() == waits; {
				if time.Now().After(deadline) {
					t.Error("B never waited on the key A claimed")
					break
				}
				time.Sleep(time.Millisecond)
			}
			cancelA()
		})
	}
	_, err := oA.runAll(func(string) []ConfigSpec {
		return []ConfigSpec{mechSpec(sim.MechUDP), mechSpec(sim.MechBaseline)}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled runner err = %v, want context.Canceled", err)
	}
	<-bDone
	if bErr != nil {
		t.Fatalf("waiter inherited the runner's cancellation: %v", bErr)
	}
	FlushResultCache()
	want, err := oB.run("mysql", mechSpec(sim.MechBaseline))
	if err != nil {
		t.Fatal(err)
	}
	if bRes != want {
		t.Errorf("waiter's result differs from a fresh run\n got: %+v\nwant: %+v", bRes, want)
	}
}
