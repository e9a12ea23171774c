// Command trace records, inspects, and selects simpoints from workload
// traces — the repository's stand-in for the paper's DynamoRIO/Intel-PT
// + SimPoint tooling. Traces are self-contained UDPT2 files (embedded
// static image, chunked + checksummed, gzipped binary records).
//
// Subcommands:
//
//	trace record -workload mysql -instrs 1000000 -o mysql.udpt2
//	trace inspect -top 10 mysql.udpt2
//	trace simpoints -k 10 -interval 100000 mysql.udpt2
//
// To simulate a recorded trace, run `udpsim -trace mysql.udpt2`.
package main

import (
	"flag"
	"fmt"
	"os"

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
	case "inspect":
		err = cmdInspect(os.Args[2:])
	case "simpoints":
		err = cmdSimpoints(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "trace: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: trace {record|inspect|simpoints} [flags]")
	os.Exit(2)
}

func cmdRecord(args []string) error {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	name := fs.String("workload", "mysql", "application to trace")
	instrs := fs.Uint64("instrs", 1_000_000, "instructions to record")
	salt := fs.Uint64("salt", 0, "executor salt (simpoint seed)")
	out := fs.String("o", "", "output file (default <workload>.udpt2)")
	fs.Parse(args)

	prof, ok := workload.ByName(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	path := *out
	if path == "" {
		path = *name + ".udpt2"
	}
	size, err := recordFile(path, prof, *salt, *instrs)
	if err != nil {
		return err
	}
	fmt.Printf("recorded %d instructions of %s to %s (v2, %d KiB, %.2f B/instr)\n",
		*instrs, *name, path, size/1024, float64(size)/float64(*instrs))
	return nil
}

// recordFile records a trace to path and returns its size. It refuses
// to record zero instructions, since no loader accepts a trace without
// records, and creates nothing then. If recording or closing fails it
// removes the file, so no truncated trace is left for a later load to
// trip over; a path that is not a regular file, such as /dev/stdout, is
// left alone.
func recordFile(path string, prof workload.Profile, salt, instrs uint64) (int64, error) {
	if instrs == 0 {
		return 0, fmt.Errorf("recording %s: -instrs must be at least 1", path)
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	err = trace.RecordN2(f, prof, salt, instrs)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		if info, serr := os.Lstat(path); serr == nil && info.Mode().IsRegular() {
			os.Remove(path)
		}
		return 0, fmt.Errorf("recording %s: %w", path, err)
	}
	info, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return info.Size(), nil
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

// cmdInspect prints the corpus-triage summary: workload, salt and
// embedded image, instruction count, branch mix, taken rate, code
// footprint, and the top-N hot fetch blocks. InspectReport does the
// formatting so tests can pin it.
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
	return trace.InspectReport(os.Stdout, h.Workload(), h.Salt(), h.prog, &st, *top)
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
