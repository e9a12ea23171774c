package experiments

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"

	"udpsim/internal/sim"
	"udpsim/internal/workload"
)

// Descriptor is a JSON experiment specification, the equivalent of the
// paper artifact's isca.json: a cross product of workloads and
// configurations to simulate, with per-configuration overrides.
//
// Example:
//
//	{
//	  "name": "isca2024-udp",
//	  "workloads": ["mysql", "xgboost"],
//	  "instructions": 500000,
//	  "warmup": 2000000,
//	  "simpoints": 2,
//	  "configs": [
//	    {"label": "baseline", "mechanism": "baseline"},
//	    {"label": "udp", "mechanism": "udp"},
//	    {"label": "ftq64", "mechanism": "baseline", "ftq": 64},
//	    {"label": "smallbtb", "mechanism": "udp", "btb": 1024}
//	  ]
//	}
type Descriptor struct {
	Name         string       `json:"name"`
	Workloads    []string     `json:"workloads"`
	Instructions uint64       `json:"instructions"`
	Warmup       uint64       `json:"warmup"`
	Simpoints    int          `json:"simpoints"`
	Configs      []ConfigSpec `json:"configs"`
	// Traces declares UDPT2 trace workloads. A declared trace is
	// referenced from Workloads as "trace:<name>"; when Workloads is
	// empty and Traces is not, the workload list defaults to exactly
	// the declared traces. The field participates in the daemon's
	// content-addressed JobID like any other, so identical submissions
	// dedup to one job.
	Traces []TraceSpec `json:"traces,omitempty"`
}

// TraceSpec names one UDPT2 trace workload. At least one of File (a
// path the runner loads) or SHA256 (the content hash of an
// already-registered trace) must be set; ResolveTraces loads files and
// fills hashes before any cell key is derived.
type TraceSpec struct {
	Name   string `json:"name"`
	File   string `json:"file,omitempty"`
	SHA256 string `json:"sha256,omitempty"`
}

// FindTrace returns the declared trace spec with the given name.
func (d *Descriptor) FindTrace(name string) (TraceSpec, bool) {
	for _, t := range d.Traces {
		if t.Name == name {
			return t, true
		}
	}
	return TraceSpec{}, false
}

// ConfigSpec is one machine configuration in a descriptor.
type ConfigSpec struct {
	Label     string `json:"label"`
	Mechanism string `json:"mechanism"`
	// Optional overrides (zero = Table II default).
	FTQ        int `json:"ftq,omitempty"`
	BTB        int `json:"btb,omitempty"`
	ICacheKB   int `json:"icache_kb,omitempty"`
	ICacheWays int `json:"icache_ways,omitempty"`
	// Memory request-path geometry: per-level MSHR file sizes and fill
	// bandwidth (cycles between line installs at a level).
	L1DMSHRs      int `json:"l1d_mshrs,omitempty"`
	L2MSHRs       int `json:"l2_mshrs,omitempty"`
	LLCMSHRs      int `json:"llc_mshrs,omitempty"`
	L2FillCycles  int `json:"l2_fill_cycles,omitempty"`
	LLCFillCycles int `json:"llc_fill_cycles,omitempty"`
	// DRAM prefetch throttle backlog in cycles; negative disables the
	// throttle, zero keeps the default (64 DRAM burst slots).
	DRAMPrefetchBacklog int `json:"dram_prefetch_backlog,omitempty"`
	// Utility-controller (UFTQ) depth-bound overrides: the initial
	// occupancy target and the clamp range the controller may move it
	// within. Zero keeps the Table II defaults.
	UFTQInitialDepth int `json:"uftq_initial_depth,omitempty"`
	UFTQMinDepth     int `json:"uftq_min_depth,omitempty"`
	UFTQMaxDepth     int `json:"uftq_max_depth,omitempty"`
	// UDP filter-policy overrides: the off-path confidence-counter
	// threshold (core.UDPConfig.ConfidenceThreshold, default 8) and
	// the seniority-list capacity.
	UDPConfidence int `json:"udp_confidence,omitempty"`
	UDPSeniority  int `json:"udp_seniority,omitempty"`
}

// FieldError locates one invalid descriptor field: which field (in a
// JSON-pointer-ish spelling like "configs[2].mechanism") and why. The
// structured form exists so the daemon's HTTP layer can map validation
// failures to machine-readable 400 bodies instead of regexing error
// strings.
type FieldError struct {
	Field  string `json:"field"`
	Reason string `json:"reason"`
}

func (e FieldError) Error() string { return e.Field + ": " + e.Reason }

// ValidationError aggregates every structural problem of a descriptor
// (validation does not stop at the first offense, so an API client gets
// the full list in one round trip).
type ValidationError struct {
	Descriptor string       `json:"descriptor,omitempty"`
	Fields     []FieldError `json:"fields"`
}

func (e *ValidationError) Error() string {
	var b strings.Builder
	b.WriteString("experiments: invalid descriptor")
	if e.Descriptor != "" {
		fmt.Fprintf(&b, " %q", e.Descriptor)
	}
	for i, f := range e.Fields {
		if i == 0 {
			b.WriteString(": ")
		} else {
			b.WriteString("; ")
		}
		b.WriteString(f.Error())
	}
	return b.String()
}

// AsValidationError unwraps err to a *ValidationError if one is in the
// chain (nil otherwise) — the API handler's 400 path.
func AsValidationError(err error) *ValidationError {
	var ve *ValidationError
	if errors.As(err, &ve) {
		return ve
	}
	return nil
}

// ParseDescriptor reads and validates a JSON descriptor.
func ParseDescriptor(r io.Reader) (*Descriptor, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("experiments: parsing descriptor: %w", err)
	}
	return AddDescriptorTraces(raw, "")
}

// Validate reports structural problems (all of them, as a
// *ValidationError) and applies defaults: empty workloads mean all,
// zero instructions/simpoints get the standard values.
func (d *Descriptor) Validate() error {
	ve := &ValidationError{Descriptor: d.Name}
	bad := func(field, format string, args ...any) {
		ve.Fields = append(ve.Fields, FieldError{Field: field, Reason: fmt.Sprintf(format, args...)})
	}
	if d.Name == "" {
		bad("name", "descriptor needs a name")
	}
	if len(d.Configs) == 0 {
		bad("configs", "descriptor has no configs")
	}
	traceNames := map[string]bool{}
	for i, t := range d.Traces {
		field := func(f string) string { return fmt.Sprintf("traces[%d].%s", i, f) }
		if t.Name == "" {
			bad(field("name"), "trace needs a name")
		} else if traceNames[t.Name] {
			bad(field("name"), "duplicate trace name %q", t.Name)
		} else if _, ok := workload.ByName(t.Name); ok {
			bad(field("name"), "trace name %q shadows a synthetic workload", t.Name)
		}
		traceNames[t.Name] = true
		if t.File == "" && t.SHA256 == "" {
			bad(field("file"), "trace needs a file path or a sha256 of a registered trace")
		}
		if t.SHA256 != "" && !isHexSHA256(t.SHA256) {
			bad(field("sha256"), "sha256 must be 64 hex characters, got %q", t.SHA256)
		}
	}
	if len(d.Workloads) == 0 {
		if len(d.Traces) > 0 {
			for _, t := range d.Traces {
				d.Workloads = append(d.Workloads, "trace:"+t.Name)
			}
		} else {
			d.Workloads = append(d.Workloads, workload.Names...)
		}
	}
	usesTrace := false
	for i, w := range d.Workloads {
		if tn, ok := strings.CutPrefix(w, "trace:"); ok {
			usesTrace = true
			if !traceNames[tn] {
				bad(fmt.Sprintf("workloads[%d]", i), "workload %q references an undeclared trace (declared: %s)",
					w, traceSpecNames(d.Traces))
			}
			continue
		}
		if _, ok := workload.ByName(w); !ok {
			bad(fmt.Sprintf("workloads[%d]", i), "unknown workload %q (known: %s)",
				w, strings.Join(append(append([]string{}, workload.Names...), workload.ExtraNames...), ", "))
		}
	}
	if usesTrace && d.Simpoints > 1 {
		bad("simpoints", "trace workloads are a single recording and support only 1 simpoint, got %d", d.Simpoints)
	}
	seen := map[string]bool{}
	for i, c := range d.Configs {
		if c.Label == "" {
			bad(fmt.Sprintf("configs[%d].label", i), "config has no label")
		} else if seen[c.Label] {
			bad(fmt.Sprintf("configs[%d].label", i), "duplicate config label %q", c.Label)
		}
		seen[c.Label] = true
		// Descriptors must name mechanisms explicitly — the empty-string
		// alias for baseline is a programmatic convenience only.
		if !sim.ValidMechanism(sim.Mechanism(c.Mechanism)) {
			bad(fmt.Sprintf("configs[%d].mechanism", i), "unknown mechanism %q (known: %s)",
				c.Mechanism, sim.MechanismNames())
		}
		if c.UFTQMinDepth > 0 && c.UFTQMaxDepth > 0 && c.UFTQMinDepth > c.UFTQMaxDepth {
			bad(fmt.Sprintf("configs[%d].uftq_min_depth", i),
				"uftq_min_depth %d exceeds uftq_max_depth %d", c.UFTQMinDepth, c.UFTQMaxDepth)
		}
	}
	if len(ve.Fields) > 0 {
		return ve
	}
	if d.Instructions == 0 {
		d.Instructions = 500_000
	}
	if d.Simpoints <= 0 {
		d.Simpoints = 1
	}
	return nil
}

// DescriptorResult is one (workload, config) cell of the run.
type DescriptorResult struct {
	Workload string
	Label    string
	Result   sim.Result
}

// RunDescriptor executes the full cross product with up to parallelism
// cells simulated concurrently (<= 0 means GOMAXPROCS); progress (if
// non-nil) receives one line per completed cell, serialized but in
// completion order. Results are always in descriptor (workload-major)
// order regardless of parallelism, and errors across the grid are
// aggregated.
func RunDescriptor(d *Descriptor, progress func(string), parallelism int) ([]DescriptorResult, error) {
	return RunDescriptorObserved(d, progress, parallelism, Options{})
}

// apply overwrites cfg with the spec's non-zero overrides.
func (cs ConfigSpec) apply(cfg *sim.Config) {
	if cs.FTQ > 0 {
		cfg.FTQDepth = cs.FTQ
	}
	if cs.BTB > 0 {
		cfg.BTBEntries = cs.BTB
	}
	if cs.ICacheKB > 0 {
		cfg.ICacheBytes = cs.ICacheKB * 1024
		if cs.ICacheWays <= 0 {
			// Pick an associativity that keeps the set count a
			// power of two for non-power-of-two sizes.
			cfg.ICacheWays = sim.AutoWays(cfg.ICacheBytes)
		}
	}
	if cs.ICacheWays > 0 {
		cfg.ICacheWays = cs.ICacheWays
	}
	if cs.L1DMSHRs > 0 {
		cfg.L1DMSHRs = cs.L1DMSHRs
	}
	if cs.L2MSHRs > 0 {
		cfg.L2MSHRs = cs.L2MSHRs
	}
	if cs.LLCMSHRs > 0 {
		cfg.LLCMSHRs = cs.LLCMSHRs
	}
	if cs.L2FillCycles > 0 {
		cfg.L2FillCycles = cs.L2FillCycles
	}
	if cs.LLCFillCycles > 0 {
		cfg.LLCFillCycles = cs.LLCFillCycles
	}
	if cs.DRAMPrefetchBacklog != 0 { // negative = disable
		cfg.DRAMPrefetchBacklog = cs.DRAMPrefetchBacklog
	}
	if cs.UFTQInitialDepth > 0 {
		cfg.UFTQ.InitialDepth = cs.UFTQInitialDepth
	}
	if cs.UFTQMinDepth > 0 {
		cfg.UFTQ.MinDepth = cs.UFTQMinDepth
	}
	if cs.UFTQMaxDepth > 0 {
		cfg.UFTQ.MaxDepth = cs.UFTQMaxDepth
	}
	if cs.UDPConfidence > 0 {
		cfg.UDP.ConfidenceThreshold = cs.UDPConfidence
	}
	if cs.UDPSeniority > 0 {
		cfg.UDP.SeniorityEntries = cs.UDPSeniority
	}
}

// CellConfig builds the full simulation configuration of one
// (workload, config-spec) cell of a validated descriptor — the exact
// Config RunDescriptor simulates for that cell, and the one mapping
// from a cell to a machine: figure grids, cmd/sweep and cmd/udpsim
// build theirs through it too. Trace cells ("trace:<name>") key on the
// declared spec's SHA-256 without touching the trace bytes, so cell
// keys — and therefore daemon dedup and store addressing — are
// computable at submission time.
func CellConfig(d *Descriptor, workloadName string, cs ConfigSpec) sim.Config {
	var cfg sim.Config
	if tn, ok := strings.CutPrefix(workloadName, "trace:"); ok {
		spec, ok := d.FindTrace(tn)
		if !ok {
			panic("experiments: unvalidated descriptor: unknown trace " + tn)
		}
		cfg = sim.NewTraceConfig(spec.Name, spec.SHA256, sim.Mechanism(cs.Mechanism))
	} else {
		cfg = sim.NewConfig(workload.MustByName(workloadName), sim.Mechanism(cs.Mechanism))
	}
	cfg.MaxInstructions = d.Instructions
	cfg.WarmupInstructions = d.Warmup
	cs.apply(&cfg)
	return cfg
}

// newCell is the grid cell of workload w under cs in descriptor d.
func newCell(d *Descriptor, w string, cs ConfigSpec) cell {
	return cell{name: w, label: cs.Label, cfg: CellConfig(d, w, cs)}
}

// isHexSHA256 reports whether s is a 64-character lowercase/uppercase
// hex string.
func isHexSHA256(s string) bool {
	if len(s) != 64 {
		return false
	}
	for _, c := range s {
		switch {
		case c >= '0' && c <= '9', c >= 'a' && c <= 'f', c >= 'A' && c <= 'F':
		default:
			return false
		}
	}
	return true
}

// traceSpecNames joins declared trace names for error messages.
func traceSpecNames(ts []TraceSpec) string {
	if len(ts) == 0 {
		return "none"
	}
	names := make([]string, len(ts))
	for i, t := range ts {
		names[i] = t.Name
	}
	return strings.Join(names, ", ")
}

// CellKey returns the canonical result-cache/store key of one cell —
// the address under which the daemon's content-addressed store holds
// (or will hold) the cell's result.
func CellKey(d *Descriptor, workloadName string, cs ConfigSpec) string {
	return CacheKey(CellConfig(d, workloadName, cs), d.Simpoints)
}

// RunDescriptorObserved is RunDescriptor with obsOpts's observability
// knobs (Interval, OnSample) applied to every simulated cell,
// obsOpts.Context cancelling the grid, and obsOpts.Batch selecting the
// lockstep-batched engine path. Other obsOpts fields (Instructions,
// Warmup, Simpoints, Workloads) are ignored — the descriptor owns
// those. A zero obsOpts degrades to the plain runner.
//
// Cells run through the engine's memoized, store-backed path
// (Options.run): identical cells across descriptors, figures, or
// concurrent daemon jobs simulate once, and when obsOpts.Store sets a
// persistent result store, previously computed cells load from disk.
// Cached and store-served cells emit no interval samples (nothing
// simulates).
func RunDescriptorObserved(d *Descriptor, progress func(string), parallelism int, obsOpts Options) ([]DescriptorResult, error) {
	// The grid's engine options: the descriptor's effort knobs, the
	// caller's observability hooks, no engine-level progress (labeled
	// lines are printed below).
	opts := Options{
		Instructions: d.Instructions,
		Warmup:       d.Warmup,
		Simpoints:    d.Simpoints,
		Batch:        obsOpts.Batch,
		Context:      obsOpts.Context,
		Interval:     obsOpts.Interval,
		OnSample:     obsOpts.OnSample,
		Store:        obsOpts.Store,
		OnSpan:       obsOpts.OnSpan,
	}
	var cells []cell
	var out []DescriptorResult
	for _, w := range d.Workloads {
		for _, cs := range d.Configs {
			cells = append(cells, newCell(d, w, cs))
			out = append(out, DescriptorResult{Workload: w, Label: cs.Label})
		}
	}
	if len(cells) == 0 {
		return out, nil
	}

	res, cerrs := resolveCells(opts, cells, parallelism, opts.Batch, nil)
	var errs []error
	for i := range out {
		r := &out[i]
		if cerrs[i] != nil {
			errs = append(errs, fmt.Errorf("experiments: %s/%s: %w", r.Workload, r.Label, cerrs[i]))
			continue
		}
		r.Result = res[i]
		if progress != nil {
			progressMu.Lock()
			progress(fmt.Sprintf("%s/%s: IPC %.4f", r.Workload, r.Label, res[i].IPC))
			progressMu.Unlock()
		}
	}
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	return out, nil
}

// WriteCSV emits the descriptor results as a CSV with one row per cell.
func WriteCSV(w io.Writer, results []DescriptorResult) error {
	if _, err := fmt.Fprintln(w, "workload,config,ipc,icache_mpki,branch_mpki,timeliness,onpath_ratio,usefulness,mean_ftq_occ,lost_pki,prefetches,dropped"); err != nil {
		return err
	}
	for _, r := range results {
		res := r.Result
		if _, err := fmt.Fprintf(w, "%s,%s,%.4f,%.2f,%.2f,%.3f,%.3f,%.3f,%.1f,%.0f,%d,%d\n",
			r.Workload, r.Label, res.IPC, res.IcacheMPKI, res.BranchMPKI,
			res.Timeliness, res.OnPathRatio, res.Usefulness,
			res.MeanFTQOcc, res.LostInstrsPKI, res.PrefetchesEmitted, res.PrefetchesDropped); err != nil {
			return err
		}
	}
	return nil
}

// SpeedupTable pivots descriptor results into per-workload speedups
// over a base config label.
func SpeedupTable(results []DescriptorResult, baseLabel string) ([]BarRow, error) {
	base := map[string]sim.Result{}
	for _, r := range results {
		if r.Label == baseLabel {
			base[r.Workload] = r.Result
		}
	}
	if len(base) == 0 {
		return nil, fmt.Errorf("experiments: no results for base label %q", baseLabel)
	}
	byApp := map[string]map[string]float64{}
	for _, r := range results {
		if r.Label == baseLabel {
			continue
		}
		b, ok := base[r.Workload]
		if !ok {
			continue
		}
		if byApp[r.Workload] == nil {
			byApp[r.Workload] = map[string]float64{}
		}
		byApp[r.Workload][r.Label] = r.Result.Speedup(b)
	}
	apps := make([]string, 0, len(byApp))
	for a := range byApp {
		apps = append(apps, a)
	}
	sort.Strings(apps)
	var rows []BarRow
	for _, a := range apps {
		rows = append(rows, BarRow{App: a, Values: byApp[a]})
	}
	return rows, nil
}
