package experiments

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"udpsim/internal/sim"
	"udpsim/internal/trace"
	"udpsim/internal/workload"
)

const zeroSHA = "0000000000000000000000000000000000000000000000000000000000000000"

// writeTestTrace records a short UDPT2 trace of a small profile into
// dir and returns its path. Its 12,500 records are exactly the
// traceDescriptor region (2,500) plus the trace.RunAhead margin.
func writeTestTrace(t *testing.T, dir, file string, salt uint64) string {
	t.Helper()
	p := workload.MustByName("postgres")
	p.Funcs = 30
	p.DispatchTargets = 20
	var buf bytes.Buffer
	if err := trace.RecordN2(&buf, p, salt, 12_500); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, file)
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// validationReasons collects "field: reason" strings of a Validate error.
func validationReasons(t *testing.T, err error) []string {
	t.Helper()
	var ve *ValidationError
	if !errors.As(err, &ve) {
		t.Fatalf("error is %T, want *ValidationError: %v", err, err)
	}
	out := make([]string, len(ve.Fields))
	for i, f := range ve.Fields {
		out[i] = f.Error()
	}
	return out
}

// traceDescriptor declares specs with a region that fits inside a
// writeTestTrace recording (ResolveTraces rejects longer ones).
func traceDescriptor(specs []TraceSpec, workloads []string) *Descriptor {
	return &Descriptor{
		Name:         "trace-test",
		Traces:       specs,
		Workloads:    workloads,
		Instructions: 2_000,
		Warmup:       500,
		Configs:      []ConfigSpec{{Label: "base", Mechanism: "baseline"}},
	}
}

func TestTraceSpecValidation(t *testing.T) {
	cases := []struct {
		name      string
		d         *Descriptor
		wantField string
	}{
		{
			"missing-name",
			traceDescriptor([]TraceSpec{{File: "x.udpt2"}}, nil),
			"traces[0].name",
		},
		{
			"duplicate-name",
			traceDescriptor([]TraceSpec{{Name: "a", File: "x"}, {Name: "a", File: "y"}}, nil),
			"traces[1].name",
		},
		{
			"shadows-synthetic",
			traceDescriptor([]TraceSpec{{Name: "mysql", File: "x"}}, nil),
			"traces[0].name",
		},
		{
			"file-or-sha-required",
			traceDescriptor([]TraceSpec{{Name: "a"}}, nil),
			"traces[0].file",
		},
		{
			"bad-sha-hex",
			traceDescriptor([]TraceSpec{{Name: "a", SHA256: "xyz"}}, nil),
			"traces[0].sha256",
		},
		{
			"undeclared-trace-ref",
			traceDescriptor(nil, []string{"trace:ghost"}),
			"workloads[0]",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.d.Validate()
			if err == nil {
				t.Fatal("descriptor validated")
			}
			reasons := validationReasons(t, err)
			for _, r := range reasons {
				if strings.HasPrefix(r, tc.wantField+":") {
					return
				}
			}
			t.Errorf("no error on field %q; got %q", tc.wantField, reasons)
		})
	}
}

func TestTraceSimpointsRejected(t *testing.T) {
	d := traceDescriptor([]TraceSpec{{Name: "a", SHA256: zeroSHA}}, nil)
	d.Simpoints = 3
	err := d.Validate()
	if err == nil {
		t.Fatal("simpoints>1 with a trace workload validated")
	}
	found := false
	for _, r := range validationReasons(t, err) {
		found = found || strings.HasPrefix(r, "simpoints:")
	}
	if !found {
		t.Errorf("no simpoints error: %v", err)
	}
}

func TestTraceWorkloadsDefault(t *testing.T) {
	d := traceDescriptor([]TraceSpec{
		{Name: "a", SHA256: zeroSHA},
		{Name: "b", SHA256: strings.Repeat("1", 64)},
	}, nil)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	want := []string{"trace:a", "trace:b"}
	if len(d.Workloads) != len(want) {
		t.Fatalf("Workloads = %v, want %v", d.Workloads, want)
	}
	for i := range want {
		if d.Workloads[i] != want[i] {
			t.Fatalf("Workloads = %v, want %v", d.Workloads, want)
		}
	}
}

func TestResolveTraces(t *testing.T) {
	dir := t.TempDir()
	path := writeTestTrace(t, dir, "svc.udpt2", 2)

	d := traceDescriptor([]TraceSpec{{Name: "svc", File: path}}, nil)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := ResolveTraces(d); err != nil {
		t.Fatal(err)
	}
	sha := d.Traces[0].SHA256
	if len(sha) != 64 {
		t.Fatalf("ResolveTraces left sha %q", sha)
	}
	src, ok := workload.SourceByKey("trace:" + sha)
	if !ok {
		t.Fatal("resolved trace not registered")
	}
	if src.Name() != "svc" {
		t.Errorf("registered source name = %q, want the declared spec name", src.Name())
	}

	// A re-submitted descriptor carrying only the hash of the (now
	// registered) trace resolves without touching the filesystem.
	d2 := traceDescriptor([]TraceSpec{{Name: "svc", SHA256: sha}}, nil)
	if err := d2.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := ResolveTraces(d2); err != nil {
		t.Errorf("hash-only spec of a registered trace failed: %v", err)
	}

	// A hash that is neither registered nor backed by a file fails.
	d3 := traceDescriptor([]TraceSpec{{Name: "svc", SHA256: zeroSHA}}, nil)
	if err := d3.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := ResolveTraces(d3); err == nil {
		t.Error("unregistered hash-only spec resolved")
	}

	// A pinned hash that disagrees with the file is a hard error.
	d4 := traceDescriptor([]TraceSpec{{Name: "svc", File: path, SHA256: zeroSHA}}, nil)
	if err := d4.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := ResolveTraces(d4); err == nil || !strings.Contains(err.Error(), "pins") {
		t.Errorf("hash mismatch not rejected: %v", err)
	}

	// A region longer than the recording would replay past its end, and
	// so would one that fits but leaves less than the run-ahead margin
	// after it (the frontend's oracle reads past retirement): each is a
	// structured validation error naming the trace, whether the trace
	// comes from a file or from the registry.
	for _, region := range []struct{ warmup, instrs uint64 }{{500, 50_000}, {1_000, 4_000}} {
		for _, spec := range []TraceSpec{{Name: "svc", File: path}, {Name: "svc", SHA256: sha}} {
			d5 := traceDescriptor([]TraceSpec{spec}, nil)
			d5.Warmup, d5.Instructions = region.warmup, region.instrs
			if err := d5.Validate(); err != nil {
				t.Fatal(err)
			}
			ve := AsValidationError(ResolveTraces(d5))
			if ve == nil || len(ve.Fields) != 1 || ve.Fields[0].Field != "traces[0]" ||
				!strings.Contains(ve.Fields[0].Reason, "12500 records") {
				t.Errorf("region %+v not rejected as a traces[0] validation error: %v", region, ve)
			}
		}
	}
}

func TestCellConfigTraceBranch(t *testing.T) {
	d := traceDescriptor([]TraceSpec{{Name: "svc", SHA256: zeroSHA}}, nil)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg := CellConfig(d, "trace:svc", d.Configs[0])
	if cfg.TraceRef != zeroSHA {
		t.Errorf("TraceRef = %q", cfg.TraceRef)
	}
	if cfg.Workload.Name != "svc" {
		t.Errorf("Workload.Name = %q", cfg.Workload.Name)
	}
	if got := sim.SourceKey(cfg); got != "trace:"+zeroSHA {
		t.Errorf("SourceKey = %q", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("CellConfig of an undeclared trace did not panic")
		}
	}()
	CellConfig(d, "trace:ghost", d.Configs[0])
}

func TestAddDescriptorTraces(t *testing.T) {
	dir := t.TempDir()
	path := writeTestTrace(t, dir, "webapp.udpt2", 1)
	raw := []byte(`{
		"name": "added",
		"configs": [{"label": "base", "mechanism": "baseline"}]
	}`)

	d, err := AddDescriptorTraces(raw, path+" , ")
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Traces) != 1 || d.Traces[0].Name != "webapp" || d.Traces[0].File != path {
		t.Fatalf("Traces = %+v", d.Traces)
	}
	// The empty workload list must default to the added trace, not to
	// the full synthetic corpus.
	if len(d.Workloads) != 1 || d.Workloads[0] != "trace:webapp" {
		t.Fatalf("Workloads = %v", d.Workloads)
	}

	// A base name that shadows a synthetic workload — the usual case
	// for `trace record -workload mysql -o mysql.udpt2` — is
	// disambiguated with a "-trace" suffix instead of erroring.
	shadow := writeTestTrace(t, dir, "mysql.udpt2", 1)
	d2, err := AddDescriptorTraces(raw, shadow)
	if err != nil {
		t.Fatalf("shadowing base name not disambiguated: %v", err)
	}
	if d2.Traces[0].Name != "mysql-trace" {
		t.Errorf("shadowing trace named %q, want mysql-trace", d2.Traces[0].Name)
	}

	if _, err := AddDescriptorTraces([]byte(`{"name":`), path); err == nil {
		t.Error("malformed JSON accepted")
	}
}

// TestFlagTraces checks the flag-sized region rule: the -trace files
// replace the workload set under TraceName's names, the region is cut
// to the longest one every trace holds, and only a trace too short for
// the warmup itself fails — while ResolveTraces rejects the same
// oversized region when a descriptor declares it.
func TestFlagTraces(t *testing.T) {
	dir := t.TempDir()
	a := writeTestTrace(t, dir, "mysql.udpt2", 5)
	b := writeTestTrace(t, dir, "webapp.udpt2", 6)
	d := &Descriptor{Workloads: []string{"mysql"}, Warmup: 500, Instructions: 100_000}
	if err := FlagTraces(d, a+", "+b); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(d.Workloads, ","); got != "trace:mysql-trace,trace:webapp" {
		t.Errorf("Workloads = %s, want trace:mysql-trace,trace:webapp", got)
	}
	if d.Instructions != 2_000 {
		t.Errorf("Instructions = %d, want the 2000 that 12500 records hold after 500 warmup and the run-ahead margin", d.Instructions)
	}
	for _, ts := range d.Traces {
		if src, ok := workload.SourceByName(ts.Name); !ok || src.Key() != "trace:"+ts.SHA256 {
			t.Errorf("trace %s not registered under its name and hash", ts.Name)
		}
	}

	if err := FlagTraces(&Descriptor{}, " , "); err == nil {
		t.Error("FlagTraces accepted a -trace value naming no file")
	}
	short := &Descriptor{Warmup: 2_500, Instructions: 1}
	if err := FlagTraces(short, a); err == nil || !strings.Contains(err.Error(), "leave no measured region") {
		t.Errorf("FlagTraces with warmup 2500 on 12500 records: err = %v, want the fit error", err)
	}

	declared := traceDescriptor([]TraceSpec{{Name: "webapp", File: b}}, nil)
	declared.Instructions = 100_000
	if err := declared.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := ResolveTraces(declared); AsValidationError(err) == nil {
		t.Errorf("ResolveTraces on an oversized declared region: err = %v, want a validation error", err)
	}
}

// TestRunDescriptorTraceCell runs a tiny trace-only descriptor end to
// end and checks the result equals a live run of the recorded profile
// region — the experiments-layer leg of the equivalence gate.
func TestRunDescriptorTraceCell(t *testing.T) {
	dir := t.TempDir()
	path := writeTestTrace(t, dir, "svc-e2e.udpt2", 4)

	d := traceDescriptor([]TraceSpec{{Name: "svc-e2e", File: path}}, nil)
	d.Instructions = 2_000
	d.Warmup = 500
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := ResolveTraces(d); err != nil {
		t.Fatal(err)
	}
	res, err := RunDescriptor(d, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("got %d cells, want 1", len(res))
	}
	r := res[0].Result
	if r.Instructions == 0 || r.IPC <= 0 {
		t.Errorf("implausible trace cell result: %+v", r)
	}
	if res[0].Workload != "trace:svc-e2e" {
		t.Errorf("cell workload = %q", res[0].Workload)
	}

	// The lockstep path must replay the same short trace to the same
	// result: batch machines read the trace directly, so they never
	// pull records beyond what the unbatched run reads.
	FlushResultCache()
	batched, err := RunDescriptorObserved(d, nil, 1, Options{Batch: true})
	if err != nil {
		t.Fatal(err)
	}
	if batched[0] != res[0] {
		t.Errorf("batched trace cell differs\n got: %+v\nwant: %+v", batched[0], res[0])
	}
}
