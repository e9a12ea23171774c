package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"

	"udpsim/internal/trace"
	"udpsim/internal/workload"
)

// TraceName is the workload name a trace file replays under: the
// file's base name without its extension, plus a "-trace" suffix when
// that would shadow a synthetic workload — the usual case for
// `trace record -workload mysql -o mysql.udpt2`, which replays as
// mysql-trace, so validation's shadowing rule holds.
func TraceName(file string) string {
	name := strings.TrimSuffix(filepath.Base(file), filepath.Ext(file))
	if _, ok := workload.ByName(name); ok {
		name += "-trace"
	}
	return name
}

// traceSpecs names the comma-separated trace files of a -trace flag.
func traceSpecs(files string) []TraceSpec {
	var specs []TraceSpec
	for _, f := range strings.Split(files, ",") {
		if f = strings.TrimSpace(f); f != "" {
			specs = append(specs, TraceSpec{Name: TraceName(f), File: f})
		}
	}
	return specs
}

// AddDescriptorTraces parses a raw descriptor with extra trace files
// (comma-separated paths, none when empty) appended to its trace set,
// then validates it. Defaults depending on the trace set — an empty
// workload list becomes the declared traces — are computed after the
// append, which is why this starts from the raw JSON rather than
// mutating an already-validated Descriptor. Each added trace is named
// by TraceName.
func AddDescriptorTraces(raw []byte, files string) (*Descriptor, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var d Descriptor
	if err := dec.Decode(&d); err != nil {
		return nil, fmt.Errorf("experiments: parsing descriptor: %w", err)
	}
	for _, t := range traceSpecs(files) {
		d.Traces = append(d.Traces, t)
		// A descriptor with an explicit workload list gets the trace
		// appended to its grid; an empty list already defaults to
		// exactly the declared traces in Validate.
		if len(d.Workloads) > 0 {
			d.Workloads = append(d.Workloads, "trace:"+t.Name)
		}
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return &d, nil
}

// FlagTraces makes the trace files of a -trace flag (comma-separated
// paths, each named by TraceName) the workloads of d, a descriptor
// whose region comes from command-line flags, and resolves them.
// Where ResolveTraces rejects a trace too short for a region the
// descriptor declares, FlagTraces fits the region instead: it cuts
// d.Instructions to the longest region every trace holds after
// d.Warmup and the trace.RunAhead margin, and fails only when a trace
// leaves no region at all. The caller validates d.
func FlagTraces(d *Descriptor, files string) error {
	d.Traces, d.Workloads = traceSpecs(files), nil
	if len(d.Traces) == 0 {
		return fmt.Errorf("experiments: no trace file in %q", files)
	}
	for _, t := range d.Traces {
		d.Workloads = append(d.Workloads, "trace:"+t.Name)
	}
	return resolveTraces(d, true)
}

// ResolveTraces loads and registers every trace a validated descriptor
// declares, filling in missing SHA-256 hashes, so that cell keys are
// final and machine construction can resolve Config.TraceRef through
// the source registry. Specs that carry a hash of an already-registered
// source are accepted without touching the filesystem — the daemon path
// for re-submitted descriptors. A trace holding fewer records than the
// descriptor's warmup + instructions + trace.RunAhead is rejected as a
// *ValidationError: the frontend's run-ahead would replay past its end.
// Call it after ParseDescriptor and before running or enqueueing the
// descriptor.
func ResolveTraces(d *Descriptor) error { return resolveTraces(d, false) }

// resolveTraces is ResolveTraces; with fit, each trace first cuts
// d.Instructions to fit (FlagTraces).
func resolveTraces(d *Descriptor, fit bool) error {
	for i := range d.Traces {
		t := &d.Traces[i]
		var src *trace.Source
		if t.SHA256 != "" {
			s, _ := workload.SourceByKey("trace:" + t.SHA256)
			src, _ = s.(*trace.Source)
		}
		registered := src != nil
		if !registered {
			if t.File == "" {
				return fmt.Errorf("experiments: trace %q: sha256 %s is not a registered trace and no file is given",
					t.Name, t.SHA256)
			}
			var err error
			if src, err = trace.LoadSource(t.File); err != nil {
				return fmt.Errorf("experiments: trace %q: %w", t.Name, err)
			}
			if t.SHA256 != "" && t.SHA256 != src.SHA256() {
				return fmt.Errorf("experiments: trace %q: file %s hashes to %s, descriptor pins %s",
					t.Name, t.File, src.SHA256(), t.SHA256)
			}
		}
		if fit {
			n, err := trace.FitRegion(src.Len(), d.Warmup, d.Instructions)
			if err != nil {
				return fmt.Errorf("experiments: trace %q: %w", t.Name, err)
			}
			d.Instructions = n
		}
		if need := d.Warmup + d.Instructions + trace.RunAhead; src.Len() < need {
			return &ValidationError{Descriptor: d.Name, Fields: []FieldError{{
				Field: fmt.Sprintf("traces[%d]", i),
				Reason: fmt.Sprintf("trace %q holds %d records, fewer than warmup + instructions + run-ahead margin (%d)",
					t.Name, src.Len(), need),
			}}}
		}
		if !registered {
			t.SHA256 = src.SHA256()
			src.SetName(t.Name)
			workload.RegisterSource(src)
		}
	}
	return nil
}
