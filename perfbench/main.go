// Command perfbench is udpsim's repository benchmark. It runs one named
// workload in-process, measures it for a fixed host-time budget, checks
// every simulated result it produces, and prints its metrics as a JSON
// object on the last line of standard output:
//
//	perfbench --workload grid-cold --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
// runs the separate traced mode, which reports the per-layer metrics.
// Workloads, metrics and the layer map are described in README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
)

// workers is the host parallelism every layer is held to: GOMAXPROCS,
// engine -j, daemon workers and client connections never exceed it.
var workers = min(2, runtime.NumCPU())

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is one benchmark run: its parameters, the output checks made so
// far, and the metrics to report.
type env struct {
	seed     uint64
	seconds  float64
	deadline time.Time // end of the time budget, counted from the end of set-up
	work     string    // scratch directory inside the checkout
	size     sizes

	mu        sync.Mutex
	attempted int
	failed    int
	notes     []string
	metrics   map[string]metric
}

// check counts one checked operation and records a failure note when
// cond is false. It is safe for concurrent use.
func (e *env) check(cond bool, format string, args ...any) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.attempted++
	if !cond {
		e.failed++
		if len(e.notes) < 20 {
			e.notes = append(e.notes, fmt.Sprintf(format, args...))
		}
	}
	return cond
}

func (e *env) put(name string, v float64, unit string) {
	e.mu.Lock()
	e.metrics[name] = metric{Value: v, Unit: unit}
	e.mu.Unlock()
}

// bench is one workload. setup is called setupReps times (the first
// call's products are kept; the median time is setup_s), then round
// runs back to back until the time budget is spent, then finish makes
// the untimed output checks. traced replaces the measured phase in
// --trace 1 mode and reports the per-layer metrics.
type bench interface {
	setup(e *env, first bool) error
	round(e *env) (roundResult, error)
	finish(e *env) error
	traced(e *env) error
	close()
}

// roundResult is what one unit of measured work did: the simulated
// instructions it ran (warmup plus measured) and, on the daemon, the
// submit-to-terminal latency of each job it contained, in milliseconds.
type roundResult struct {
	simInstr uint64
	jobsMS   []float64
}

const setupReps = 5

func newBench(name string) (bench, error) {
	switch name {
	case "grid-cold":
		return &gridCold{}, nil
	case "sweep-trace-lockstep":
		return &sweepTrace{}, nil
	case "daemon-mixed":
		return &daemonMixed{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (grid-cold, sweep-trace-lockstep, daemon-mixed)", name)
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: grid-cold, sweep-trace-lockstep or daemon-mixed")
		seed    = flag.Uint64("seed", 1, "workload seed: executor and trace salts, name nonces, tune seeds")
		seconds = flag.Float64("seconds", 10, "host seconds to measure for")
		traced  = flag.Int("trace", 0, "1 runs the traced mode and reports per-layer metrics")
	)
	flag.Parse()
	runtime.GOMAXPROCS(workers)
	e := &env{seed: *seed, seconds: *seconds, size: fullSizes, metrics: map[string]metric{}}
	t0 := time.Now()
	rep, err := run(e, *name, *traced == 1)
	fmt.Printf("# total_s=%.3f\n", time.Since(t0).Seconds())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, _ := json.Marshal(rep)
	fmt.Println(string(out))
}

// run executes one workload in the requested mode inside a fresh
// scratch directory under .bench_work/.
func run(e *env, name string, traced bool) (report, error) {
	b, err := newBench(name)
	if err != nil {
		return report{}, err
	}
	wd, err := os.Getwd()
	if err != nil {
		return report{}, err
	}
	e.work = filepath.Join(wd, ".bench_work", fmt.Sprintf("%s-%d-%d", name, e.seed, os.Getpid()))
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		return report{}, err
	}
	// The scratch directory is left in place: the daemon's store files
	// are fsynced, and deleting a traced run's thousands of them took
	// over a minute on a shared disk.
	defer func() {
		t0 := time.Now()
		b.close()
		fmt.Printf("# close_s=%.3f\n", time.Since(t0).Seconds())
	}()

	setupS := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if err := b.setup(e, i == 0); err != nil {
			return report{}, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		// Collect each set-up's garbage (only the first one's products
		// are kept), so neither the next set-up's time nor the peak RSS
		// depends on where GC pacing left the heap.
		runtime.GC()
	}
	fmt.Printf("# setup_s=%v peak_rss_after_setup_mb=%.1f\n", setupS, residentMB("VmHWM"))
	// Return the set-ups' freed pages to the OS, so the measured rounds'
	// resident set does not depend on how far the scavenger has got.
	debug.FreeOSMemory()
	e.deadline = time.Now().Add(time.Duration(e.seconds * float64(time.Second)))
	if traced {
		if err := b.traced(e); err != nil {
			return report{}, fmt.Errorf("traced run: %w", err)
		}
	} else {
		if err := measure(e, b); err != nil {
			return report{}, err
		}
		e.put("setup_s", median(setupS), "s")
		e.put("ok_frac", 1-float64(e.failed)/float64(max(e.attempted, 1)), "frac")
	}
	for _, n := range e.notes {
		fmt.Println("# FAIL", n)
	}
	rep := report{Correct: e.failed == 0, Attempted: e.attempted, Failed: e.failed, Metrics: e.metrics}
	if rep.Attempted == 0 {
		return report{}, fmt.Errorf("no output was checked")
	}
	return rep, nil
}

// measure runs rounds back to back until the time budget is spent and
// derives the end-to-end metrics from them. max_rss_mb is the largest
// resident set sampled during the measured rounds. The process-wide peak
// (VmHWM) is set by the repeated set-ups; a median over rounds moves with
// how far the resident set has ratcheted up, which GC pacing decides.
func measure(e *env, b bench) error {
	var (
		roundS   []float64
		rssMB    []float64
		jobsMS   []float64
		simInstr uint64
	)
	rss := startRSS()
	defer rss.stop()
	// One untimed round first: the heap grows to its working size, and
	// connections, images and the store's read layer are warm.
	t0 := time.Now()
	if _, err := b.round(e); err != nil {
		return fmt.Errorf("warm-up round: %w", err)
	}
	fmt.Printf("# warm_up_s=%.3f\n", time.Since(t0).Seconds())
	rss.take()
	start := time.Now()
	for len(roundS) == 0 || time.Since(start).Seconds() < e.seconds {
		t0 := time.Now()
		r, err := b.round(e)
		if err != nil {
			return fmt.Errorf("round %d: %w", len(roundS), err)
		}
		roundS = append(roundS, time.Since(t0).Seconds())
		rssMB = append(rssMB, rss.take())
		jobsMS = append(jobsMS, r.jobsMS...)
		simInstr += r.simInstr
	}
	phase := time.Since(start).Seconds()
	rss.stop()
	t0 = time.Now()
	if err := b.finish(e); err != nil {
		return err
	}
	fmt.Printf("# finish_s=%.3f\n", time.Since(t0).Seconds())
	fmt.Printf("# rounds=%d phase_s=%.3f\n", len(roundS), phase)
	if len(roundS) <= 50 {
		fmt.Printf("# round_s=%.3f\n# round_rss_mb=%.0f\n", roundS, rssMB)
	}
	e.put("wall_s", median(roundS), "s")
	e.put("max_rss_mb", slices.Max(rssMB), "MB")
	e.put("sim_minstr_per_s", float64(simInstr)/1e6/phase, "Minstr/s")
	if len(jobsMS) > 0 {
		// Only the daemon has jobs. A p99 needs at least 10 samples
		// beyond it, or it is just the slowest job.
		sort.Float64s(jobsMS)
		p99, beyond := percentile(jobsMS, 0.99)
		fmt.Printf("# jobs=%d job_samples_beyond_p99=%d\n", len(jobsMS), beyond)
		e.put("job_p50_ms", median(jobsMS), "ms")
		e.put("jobs_per_s", float64(len(jobsMS))/phase, "1/s")
		if beyond >= 10 {
			e.put("job_p99_ms", p99, "ms")
		}
	}
	return nil
}

// median returns the middle value (mean of the two middle values for an
// even count); the input is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-quantile of sorted xs and how
// many samples lie strictly above it.
func percentile(sorted []float64, p float64) (float64, int) {
	if len(sorted) == 0 {
		return 0, 0
	}
	i := int(float64(len(sorted))*p+0.999999) - 1
	i = max(0, min(i, len(sorted)-1))
	beyond := 0
	for _, v := range sorted[i+1:] {
		if v > sorted[i] {
			beyond++
		}
	}
	return sorted[i], beyond
}

// residentMB reads one of the process's resident-set fields (VmRSS, or
// the peak VmHWM) in MiB; 0 where /proc is unavailable.
func residentMB(field string) float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == field+":" {
			var kb float64
			fmt.Sscan(f[1], &kb)
			return kb / 1024
		}
	}
	return 0
}

// rssSampler samples VmRSS every 10 ms on its own goroutine. The
// process-wide peak (VmHWM) would be set by the repeated set-ups, not by
// the workload.
type rssSampler struct {
	mu     sync.Mutex
	peak   float64 // largest sample since the last take
	done   chan struct{}
	exited chan struct{}
	once   sync.Once
}

func startRSS() *rssSampler {
	s := &rssSampler{done: make(chan struct{}), exited: make(chan struct{})}
	go func() {
		defer close(s.exited)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				v := residentMB("VmRSS")
				s.mu.Lock()
				s.peak = max(s.peak, v)
				s.mu.Unlock()
			case <-s.done:
				return
			}
		}
	}()
	return s
}

// take returns the largest resident set seen since the previous take
// (including now) and starts a new window.
func (s *rssSampler) take() float64 {
	v := residentMB("VmRSS")
	s.mu.Lock()
	defer s.mu.Unlock()
	p := max(s.peak, v)
	s.peak = 0
	return p
}

// stop ends sampling and waits for the sampler to exit; it may be
// called more than once.
func (s *rssSampler) stop() {
	s.once.Do(func() { close(s.done) })
	<-s.exited
}
