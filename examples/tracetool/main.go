// tracetool records a synthetic workload execution to a compressed
// trace file, reloads it, verifies replay fidelity against live
// execution, summarizes it (instruction mix, footprint), and selects
// simpoint regions from its basic-block vectors — the paper's
// DynamoRIO/Intel-PT + SimPoint methodology end to end.
package main

import (
	"bytes"
	"fmt"
	"os"

	"udpsim"
	"udpsim/internal/trace"
	"udpsim/internal/workload"
)

func main() {
	const app = "postgres"
	const n = 500_000

	prof, err := udpsim.WorkloadProfile(app)
	if err != nil {
		panic(err)
	}

	// 1. Record.
	path := "postgres.udpt2"
	f, err := os.Create(path)
	if err != nil {
		panic(err)
	}
	if err := trace.RecordN2(f, prof, 0, n, trace.EncBinary); err != nil {
		panic(err)
	}
	if err := f.Close(); err != nil {
		panic(err)
	}
	info, _ := os.Stat(path)
	fmt.Printf("recorded %d instructions of %s to %s (%d KiB, %.2f bytes/instr)\n",
		n, app, path, info.Size()/1024, float64(info.Size())/n)

	// 2. Reload + verify against live execution.
	data, err := os.ReadFile(path)
	if err != nil {
		panic(err)
	}
	open := func() *trace.Reader2 {
		r, err := trace.NewReader2(bytes.NewReader(data))
		if err != nil {
			panic(err)
		}
		return r
	}
	r := open()
	prog, err := r.Image() // the trace carries its own static image
	if err != nil {
		panic(err)
	}
	live := workload.NewExecutor(workload.MustGenerate(prof), 0)
	for i := 0; i < n; i++ {
		a, err := r.Read()
		if err != nil {
			panic(err)
		}
		b := live.Next()
		if a.PC != b.PC() || a.Taken != b.Taken || a.Target != b.Target || a.DataAddr != b.DataAddr {
			panic(fmt.Sprintf("replay diverged at instruction %d: %+v vs %v", i, a, b))
		}
	}
	fmt.Printf("replay verified: %d instructions identical to live execution\n", n)

	// 3. Summarize.
	stats, err := trace.Analyze(prog, open())
	if err != nil {
		panic(err)
	}
	fmt.Printf("trace stats: %v\n", &stats)

	// 4. Simpoints.
	intervals, err := trace.Intervals(open(), 50_000)
	if err != nil {
		panic(err)
	}
	points := trace.Select(intervals, 3)
	fmt.Printf("simpoint selection over %d intervals of 50k instructions:\n", len(intervals))
	for _, p := range points {
		fmt.Printf("  region at instruction %d (weight %.2f)\n", p.Start, p.Weight)
	}

	_ = os.Remove(path)
}
