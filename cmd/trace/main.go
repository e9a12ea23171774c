// Command trace records, inspects, and selects simpoints from workload
// traces — the repository's stand-in for the paper's DynamoRIO/Intel-PT
// + SimPoint tooling. Traces are self-contained UDPT2 files (embedded
// static image, chunked + checksummed, gzip binary or JSONL encoding).
//
// Subcommands:
//
//	trace record -workload mysql -instrs 1000000 -o mysql.udpt2
//	trace info mysql.udpt2
//	trace inspect -top 10 mysql.udpt2
//	trace simpoints -k 10 -interval 100000 mysql.udpt2
//	trace replay -mechanism udp mysql.udpt2   # re-simulate from the trace
package main

import (
	"flag"
	"fmt"
	"os"

	"udpsim/internal/sim"
	"udpsim/internal/trace"
	"udpsim/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "record":
		err = cmdRecord(os.Args[2:])
	case "info":
		err = cmdInfo(os.Args[2:])
	case "inspect":
		err = cmdInspect(os.Args[2:])
	case "simpoints":
		err = cmdSimpoints(os.Args[2:])
	case "replay":
		err = cmdReplay(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "trace: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: trace {record|info|inspect|simpoints|replay} [flags]")
	os.Exit(2)
}

func cmdRecord(args []string) error {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	name := fs.String("workload", "mysql", "application to trace")
	instrs := fs.Uint64("instrs", 1_000_000, "instructions to record")
	salt := fs.Uint64("salt", 0, "executor salt (simpoint seed)")
	encName := fs.String("enc", "binary", "record encoding: binary or jsonl")
	out := fs.String("o", "", "output file (default <workload>.udpt2)")
	fs.Parse(args)

	prof, ok := workload.ByName(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	enc, err := trace.ParseEncoding(*encName)
	if err != nil {
		return err
	}
	path := *out
	if path == "" {
		path = *name + ".udpt2"
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := trace.RecordN2(f, prof, *salt, *instrs, enc); err != nil {
		return err
	}
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	fmt.Printf("recorded %d instructions of %s to %s (v2, %d KiB, %.2f B/instr)\n",
		*instrs, *name, path, info.Size()/1024, float64(info.Size())/float64(*instrs))
	return nil
}

// traceHandle is an open trace: its record reader plus the embedded
// program image.
type traceHandle struct {
	*trace.Reader2
	prog *workload.Program
	f    *os.File
}

func (h *traceHandle) Close() { h.f.Close() }

// openTrace opens a trace and decodes its embedded image.
func openTrace(path string) (*traceHandle, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	r, err := trace.NewReader2(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	prog, err := r.Image()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &traceHandle{Reader2: r, prog: prog, f: f}, nil
}

func cmdInfo(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("info needs exactly one trace file")
	}
	h, err := openTrace(fs.Arg(0))
	if err != nil {
		return err
	}
	defer h.Close()
	st, err := trace.Analyze(h.prog, h)
	if err != nil {
		return err
	}
	fmt.Println("format     UDPT2")
	fmt.Printf("workload   %s (salt %d)\n", h.Workload(), h.Salt())
	fmt.Printf("image      %s\n", h.prog)
	fmt.Printf("dynamic    %v\n", &st)
	return nil
}

// cmdInspect prints the corpus-triage summary: instruction count,
// branch mix, taken rate, code footprint, and the top-N hot fetch
// blocks. InspectReport does the formatting so tests can pin it.
func cmdInspect(args []string) error {
	fs := flag.NewFlagSet("inspect", flag.ExitOnError)
	top := fs.Int("top", 10, "number of hot blocks to list")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("inspect needs exactly one trace file")
	}
	h, err := openTrace(fs.Arg(0))
	if err != nil {
		return err
	}
	defer h.Close()
	st, err := trace.Analyze(h.prog, h)
	if err != nil {
		return err
	}
	return trace.InspectReport(os.Stdout, h.Workload(), h.prog, &st, *top)
}

func cmdSimpoints(args []string) error {
	fs := flag.NewFlagSet("simpoints", flag.ExitOnError)
	k := fs.Int("k", 10, "number of representative regions")
	interval := fs.Uint64("interval", 100_000, "interval length in instructions")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("simpoints needs exactly one trace file")
	}
	h, err := openTrace(fs.Arg(0))
	if err != nil {
		return err
	}
	defer h.Close()
	intervals, err := trace.Intervals(h, *interval)
	if err != nil {
		return err
	}
	points := trace.Select(intervals, *k)
	fmt.Printf("%d intervals of %d instructions → %d simpoints:\n",
		len(intervals), *interval, len(points))
	for _, p := range points {
		fmt.Printf("  start %-12d weight %.3f\n", p.Start, p.Weight)
	}
	return nil
}

func cmdReplay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	mech := fs.String("mechanism", "baseline", "prefetch mechanism")
	instrs := fs.Uint64("instrs", 0, "instructions to simulate (0 = trace length minus runahead margin)")
	warmup := fs.Uint64("warmup", 0, "warmup instructions (excluded from stats)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("replay needs exactly one trace file")
	}
	src, err := trace.LoadSource(fs.Arg(0))
	if err != nil {
		return err
	}
	workload.RegisterSource(src)
	cfg := sim.NewTraceConfig(src.Name(), src.SHA256(), sim.Mechanism(*mech))
	cfg.SeedSalt = src.Salt()
	cfg.WarmupInstructions = *warmup
	cfg.MaxInstructions, err = trace.FitRegion(src.Len(), *warmup, *instrs)
	if err != nil {
		return err
	}
	m, err := sim.NewMachine(cfg)
	if err != nil {
		return err
	}
	res := m.Run()
	fmt.Printf("replayed %d instructions under %s: IPC %.4f, icache MPKI %.2f\n",
		res.Instructions, res.Mechanism, res.IPC, res.IcacheMPKI)
	return nil
}
