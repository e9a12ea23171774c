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

// AddDescriptorTraces re-parses a raw descriptor with extra trace files
// (comma-separated paths) appended to its trace set, then re-validates.
// Defaults depending on the trace set — an empty workload list becomes
// the declared traces — are recomputed, which is why this starts from
// the raw JSON rather than mutating an already-validated Descriptor.
// Each added trace is named after its file's base name (sans
// extension); a base name that shadows a synthetic workload — the
// usual case for `trace record -workload mysql -o mysql.udpt2` — gets
// a "-trace" suffix so validation's shadowing rule holds.
func AddDescriptorTraces(raw []byte, files string) (*Descriptor, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var d Descriptor
	if err := dec.Decode(&d); err != nil {
		return nil, fmt.Errorf("experiments: parsing descriptor: %w", err)
	}
	for _, f := range strings.Split(files, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		name := strings.TrimSuffix(filepath.Base(f), filepath.Ext(f))
		if _, ok := workload.ByName(name); ok {
			name += "-trace"
		}
		d.Traces = append(d.Traces, TraceSpec{Name: name, File: f})
		// A descriptor with an explicit workload list gets the trace
		// appended to its grid; an empty list already defaults to
		// exactly the declared traces in Validate.
		if len(d.Workloads) > 0 {
			d.Workloads = append(d.Workloads, "trace:"+name)
		}
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return &d, nil
}

// ResolveTraces loads and registers every trace a validated descriptor
// declares, filling in missing SHA-256 hashes, so that cell keys are
// final and machine construction can resolve Config.TraceRef through
// the source registry. Specs that carry a hash of an already-registered
// source are accepted without touching the filesystem — the daemon path
// for re-submitted descriptors. A trace holding fewer records than the
// descriptor's warmup + instructions + trace.RunAhead is rejected as a
// *ValidationError: the frontend's run-ahead would replay past its end. Call it after ParseDescriptor and
// before running or enqueueing the descriptor.
func ResolveTraces(d *Descriptor) error {
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
