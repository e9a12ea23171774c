// Package tune implements autotuning over the experiment engine's
// content-addressed result store: a parameter-space descriptor (named
// dimensions over the frontend, cache-geometry and bandwidth knobs of
// a ConfigSpec) and a dependency-free, seed-deterministic search
// driver (seeded random sampling, successive halving over region
// budgets, local refinement around the incumbent). The driver talks to
// the simulator only through the Prober interface, so the same search
// runs in-process over the experiment engine (cmd/experiment -tune) or
// through a udpsimd job queue (POST /v1/tune), and every probe lands
// on a canonical cell key — re-probing a known cell costs zero
// simulations wherever a result store is attached.
package tune

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"udpsim/internal/experiments"
	"udpsim/internal/sim"
	"udpsim/internal/workload"
)

// Objective names for Space.Objective.
const (
	ObjectiveIPC        = "ipc"         // maximize instructions per cycle
	ObjectiveIcacheMPKI = "icache_mpki" // minimize icache misses per kilo-instruction
	ObjectiveSpeedup    = "speedup"     // maximize IPC speedup over the paired baseline cell
)

// Space is a JSON parameter-space descriptor, the tuning analogue of
// the experiment Descriptor: which knobs to search, over which
// workloads, optimizing which objective, with what probe budget.
//
// Example:
//
//	{
//	  "name": "bandwidth-tune",
//	  "workloads": ["mysql"],
//	  "objective": "ipc",
//	  "mechanism": "udp",
//	  "instructions": 60000,
//	  "warmup": 60000,
//	  "seed": 1,
//	  "search": {"samples": 12, "eta": 4, "rungs": 2, "refine": 16},
//	  "dimensions": [
//	    {"name": "mech", "field": "mechanism", "choices": ["baseline", "udp"]},
//	    {"name": "l2m", "field": "l2_mshrs", "values": [4, 8, 16, 32]},
//	    {"name": "ftq", "field": "ftq", "min": 8, "max": 64, "log2": true}
//	  ]
//	}
type Space struct {
	Name      string   `json:"name"`
	Workloads []string `json:"workloads"`
	// Objective selects what a probe's score is (default "ipc").
	// "speedup" scores each candidate against the paired baseline cell
	// (same workload, same fidelity) described by Baseline.
	Objective string `json:"objective,omitempty"`
	// Mechanism is the candidate mechanism when no "mechanism"
	// dimension is declared (default "udp").
	Mechanism string `json:"mechanism,omitempty"`
	// Baseline is the paired-baseline config for the speedup objective
	// (default {"label": "baseline", "mechanism": "baseline"}).
	Baseline *experiments.ConfigSpec `json:"baseline,omitempty"`
	// Full-fidelity region budget (defaults match descriptors:
	// 500000 instructions, 1 simpoint). Lower rungs of successive
	// halving probe geometrically shorter regions of the same cells.
	Instructions uint64 `json:"instructions,omitempty"`
	Warmup       uint64 `json:"warmup,omitempty"`
	Simpoints    int    `json:"simpoints,omitempty"`
	// Seed makes the whole search deterministic: same space + seed =
	// same probes, same incumbent.
	Seed   int64       `json:"seed,omitempty"`
	Search Search      `json:"search,omitempty"`
	Dims   []Dimension `json:"dimensions"`
}

// Search sizes the three stages of the driver.
type Search struct {
	// Samples is the rung-0 random-sampling population (default 16,
	// clamped to the space size).
	Samples int `json:"samples,omitempty"`
	// Eta is the halving factor: each rung keeps ~1/eta of the previous
	// population and probes an eta-times-longer region (default 4).
	Eta int `json:"eta,omitempty"`
	// Rungs is the number of fidelity levels; the last rung is the full
	// region budget (default 2, max 8).
	Rungs int `json:"rungs,omitempty"`
	// Refine bounds the local-refinement probes around the incumbent at
	// full fidelity (default 16; 0 disables refinement).
	Refine int `json:"refine,omitempty"`
}

// Dimension is one searchable knob. Exactly one shape must be used:
// an explicit integer level set (Values), a categorical set (Choices,
// only for field "mechanism"), or an integer range [Min, Max] stepped
// by Step (Log2 instead doubles from Min to Max).
type Dimension struct {
	Name  string `json:"name"`
	Field string `json:"field"`
	// Range shape. Bounds are JSON numbers validated to be finite
	// integers, so a space descriptor with NaN/Inf or fractional bounds
	// is a structured 400, never a panic downstream.
	Min  float64 `json:"min,omitempty"`
	Max  float64 `json:"max,omitempty"`
	Step float64 `json:"step,omitempty"`
	Log2 bool    `json:"log2,omitempty"`
	// Explicit shapes.
	Values  []int    `json:"values,omitempty"`
	Choices []string `json:"choices,omitempty"`

	// levels is the validated enumeration for the two integer shapes;
	// mechanism dimensions enumerate Choices directly.
	levels []int
}

// intFields maps a dimension's "field" to the ConfigSpec override it
// drives. Every field here round-trips sim.ConfigKey canonically —
// that is what makes the result store usable as the search's
// acquisition cache.
var intFields = map[string]func(*experiments.ConfigSpec, int){
	"ftq":                   func(cs *experiments.ConfigSpec, v int) { cs.FTQ = v },
	"btb":                   func(cs *experiments.ConfigSpec, v int) { cs.BTB = v },
	"icache_kb":             func(cs *experiments.ConfigSpec, v int) { cs.ICacheKB = v },
	"icache_ways":           func(cs *experiments.ConfigSpec, v int) { cs.ICacheWays = v },
	"l1d_mshrs":             func(cs *experiments.ConfigSpec, v int) { cs.L1DMSHRs = v },
	"l2_mshrs":              func(cs *experiments.ConfigSpec, v int) { cs.L2MSHRs = v },
	"llc_mshrs":             func(cs *experiments.ConfigSpec, v int) { cs.LLCMSHRs = v },
	"l2_fill_cycles":        func(cs *experiments.ConfigSpec, v int) { cs.L2FillCycles = v },
	"llc_fill_cycles":       func(cs *experiments.ConfigSpec, v int) { cs.LLCFillCycles = v },
	"dram_prefetch_backlog": func(cs *experiments.ConfigSpec, v int) { cs.DRAMPrefetchBacklog = v },
	"uftq_initial_depth":    func(cs *experiments.ConfigSpec, v int) { cs.UFTQInitialDepth = v },
	"uftq_min_depth":        func(cs *experiments.ConfigSpec, v int) { cs.UFTQMinDepth = v },
	"uftq_max_depth":        func(cs *experiments.ConfigSpec, v int) { cs.UFTQMaxDepth = v },
	"udp_confidence":        func(cs *experiments.ConfigSpec, v int) { cs.UDPConfidence = v },
	"udp_seniority":         func(cs *experiments.ConfigSpec, v int) { cs.UDPSeniority = v },
}

// fieldNames returns the searchable field names for error messages.
func fieldNames() string {
	names := make([]string, 0, len(intFields)+1)
	for f := range intFields {
		names = append(names, f)
	}
	sort.Strings(names)
	return strings.Join(append(names, "mechanism"), ", ")
}

// maxSpaceSize bounds the cross product so a typo'd range cannot
// demand a billion-cell enumeration from the daemon.
const maxSpaceSize = 1 << 20

// maxDimLevels bounds one dimension's enumeration.
const maxDimLevels = 4096

// ParseSpace reads and validates a JSON space descriptor.
func ParseSpace(r io.Reader) (*Space, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var sp Space
	if err := dec.Decode(&sp); err != nil {
		return nil, fmt.Errorf("tune: parsing space: %w", err)
	}
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	return &sp, nil
}

// Validate reports every structural problem as a
// *experiments.ValidationError (the daemon maps it to a structured 400
// body, same as descriptor validation) and applies defaults. Must be
// called before any other method.
func (sp *Space) Validate() error {
	ve := &experiments.ValidationError{Descriptor: sp.Name}
	bad := func(field, format string, args ...any) {
		ve.Fields = append(ve.Fields, experiments.FieldError{Field: field, Reason: fmt.Sprintf(format, args...)})
	}
	if sp.Name == "" {
		bad("name", "space needs a name")
	}
	if len(sp.Workloads) == 0 {
		bad("workloads", "space needs at least one workload")
	}
	for i, w := range sp.Workloads {
		if strings.HasPrefix(w, "trace:") {
			bad(fmt.Sprintf("workloads[%d]", i), "trace workloads are not tunable (no trace set travels with a space)")
			continue
		}
		if _, ok := workload.ByName(w); !ok {
			bad(fmt.Sprintf("workloads[%d]", i), "unknown workload %q (known: %s)",
				w, strings.Join(append(append([]string{}, workload.Names...), workload.ExtraNames...), ", "))
		}
	}
	switch sp.Objective {
	case "":
		sp.Objective = ObjectiveIPC
	case ObjectiveIPC, ObjectiveIcacheMPKI, ObjectiveSpeedup:
	default:
		bad("objective", "unknown objective %q (known: %s, %s, %s)",
			sp.Objective, ObjectiveIPC, ObjectiveIcacheMPKI, ObjectiveSpeedup)
	}
	if sp.Mechanism == "" {
		sp.Mechanism = "udp"
	}
	if !sim.ValidMechanism(sim.Mechanism(sp.Mechanism)) {
		bad("mechanism", "unknown mechanism %q (known: %s)", sp.Mechanism, sim.MechanismNames())
	}
	if sp.Objective == ObjectiveSpeedup {
		if sp.Baseline == nil {
			sp.Baseline = &experiments.ConfigSpec{Mechanism: "baseline"}
		}
		if sp.Baseline.Label == "" {
			sp.Baseline.Label = baselineLabel
		}
		if !sim.ValidMechanism(sim.Mechanism(sp.Baseline.Mechanism)) {
			bad("baseline.mechanism", "unknown mechanism %q (known: %s)",
				sp.Baseline.Mechanism, sim.MechanismNames())
		}
	} else if sp.Baseline != nil {
		bad("baseline", "baseline is only meaningful with the %q objective", ObjectiveSpeedup)
	}
	if sp.Instructions == 0 {
		sp.Instructions = 500_000
	}
	if sp.Simpoints == 0 {
		sp.Simpoints = 1
	}
	if sp.Simpoints < 0 {
		bad("simpoints", "simpoints must be positive, got %d", sp.Simpoints)
	}

	if sp.Search.Samples == 0 {
		sp.Search.Samples = 16
	}
	if sp.Search.Samples < 1 {
		bad("search.samples", "samples must be positive, got %d", sp.Search.Samples)
	}
	if sp.Search.Eta == 0 {
		sp.Search.Eta = 4
	}
	if sp.Search.Eta < 2 {
		bad("search.eta", "eta must be at least 2, got %d", sp.Search.Eta)
	}
	if sp.Search.Rungs == 0 {
		sp.Search.Rungs = 2
	}
	if sp.Search.Rungs < 1 || sp.Search.Rungs > 8 {
		bad("search.rungs", "rungs must be in [1, 8], got %d", sp.Search.Rungs)
	}
	if sp.Search.Refine == 0 {
		sp.Search.Refine = 16
	}
	if sp.Search.Refine < 0 {
		sp.Search.Refine = 0 // negative = disable, normalized for the RunID
	}

	if len(sp.Dims) == 0 {
		bad("dimensions", "space needs at least one dimension")
	}
	names := map[string]bool{}
	fields := map[string]int{}
	size := uint64(1)
	for i := range sp.Dims {
		d := &sp.Dims[i]
		field := func(f string) string { return fmt.Sprintf("dimensions[%d].%s", i, f) }
		if d.Name == "" {
			bad(field("name"), "dimension needs a name")
		} else if names[d.Name] {
			bad(field("name"), "duplicate dimension name %q", d.Name)
		}
		names[d.Name] = true
		if prev, dup := fields[d.Field]; dup {
			bad(field("field"), "field %q already driven by dimension %q", d.Field, sp.Dims[prev].Name)
		}
		fields[d.Field] = i
		d.validate(bad, field)
		if n := d.Count(); n > 0 && size < maxSpaceSize*2 {
			size *= uint64(n)
		}
	}
	if size > maxSpaceSize {
		bad("dimensions", "space enumerates %d cells, more than the %d maximum", size, maxSpaceSize)
	}
	if len(ve.Fields) > 0 {
		return ve
	}
	return nil
}

// validate checks one dimension's shape and fills its level
// enumeration.
func (d *Dimension) validate(bad func(field, format string, args ...any), field func(string) string) {
	if len(d.Choices) > 0 || (d.Field == "mechanism" && d.Values == nil && d.Min == 0 && d.Max == 0) {
		if d.Field != "mechanism" {
			bad(field("choices"), "categorical choices are only valid for field \"mechanism\", not %q", d.Field)
			return
		}
		if len(d.Choices) == 0 {
			bad(field("choices"), "mechanism dimension needs a non-empty choice set")
			return
		}
		if len(d.Choices) > maxDimLevels {
			bad(field("choices"), "%d choices exceed the %d maximum", len(d.Choices), maxDimLevels)
			return
		}
		seen := map[string]bool{}
		for k, c := range d.Choices {
			if seen[c] {
				bad(field("choices"), "duplicate choice %q", c)
			}
			seen[c] = true
			if !sim.ValidMechanism(sim.Mechanism(c)) {
				bad(fmt.Sprintf("%s[%d]", field("choices"), k), "unknown mechanism %q (known: %s)",
					c, sim.MechanismNames())
			}
		}
		if d.Values != nil || d.Min != 0 || d.Max != 0 || d.Step != 0 || d.Log2 {
			bad(field("choices"), "a categorical dimension cannot also declare values or a range")
		}
		return
	}
	if _, ok := intFields[d.Field]; !ok {
		bad(field("field"), "unknown field %q (searchable: %s)", d.Field, fieldNames())
		return
	}
	negOK := d.Field == "dram_prefetch_backlog" // negative = throttle off
	if len(d.Values) > 0 {
		if d.Min != 0 || d.Max != 0 || d.Step != 0 || d.Log2 {
			bad(field("values"), "an explicit value set cannot also declare a range")
		}
		if len(d.Values) > maxDimLevels {
			bad(field("values"), "%d values exceed the %d maximum", len(d.Values), maxDimLevels)
			return
		}
		for k, v := range d.Values {
			if k > 0 && v <= d.Values[k-1] {
				bad(fmt.Sprintf("%s[%d]", field("values"), k),
					"values must be strictly increasing, got %d after %d", v, d.Values[k-1])
			}
			if v == 0 || (v < 0 && !negOK) {
				bad(fmt.Sprintf("%s[%d]", field("values"), k), "field %q requires positive values, got %d", d.Field, v)
			}
		}
		d.levels = append([]int(nil), d.Values...)
		return
	}
	// Range shape.
	checkBound := func(name string, v float64) (int, bool) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			bad(field(name), "%s must be a finite number", name)
			return 0, false
		}
		if v != math.Trunc(v) || v > math.MaxInt32 || v < math.MinInt32 {
			bad(field(name), "%s must be an integer in int32 range, got %v", name, v)
			return 0, false
		}
		return int(v), true
	}
	lo, okLo := checkBound("min", d.Min)
	hi, okHi := checkBound("max", d.Max)
	if !okLo || !okHi {
		return
	}
	if lo > hi {
		bad(field("min"), "min %d exceeds max %d", lo, hi)
		return
	}
	if lo <= 0 && !negOK {
		bad(field("min"), "field %q requires a positive range, got min %d", d.Field, lo)
		return
	}
	if d.Log2 {
		if d.Step != 0 {
			bad(field("step"), "step and log2 are mutually exclusive")
			return
		}
		if lo < 1 {
			bad(field("min"), "a log2 range needs min >= 1, got %d", lo)
			return
		}
		for v := lo; v <= hi && len(d.levels) <= maxDimLevels; v *= 2 {
			d.levels = append(d.levels, v)
		}
	} else {
		step, okStep := checkBound("step", d.Step)
		if !okStep {
			return
		}
		if step == 0 {
			step = 1
		}
		if step < 1 {
			bad(field("step"), "step must be positive, got %d", step)
			return
		}
		for v := lo; v <= hi && len(d.levels) <= maxDimLevels; v += step {
			d.levels = append(d.levels, v)
		}
	}
	if len(d.levels) > maxDimLevels {
		bad(field("max"), "range enumerates more than %d levels", maxDimLevels)
		d.levels = nil
	}
}

// Count is the number of levels of a validated dimension.
func (d *Dimension) Count() int {
	if d.Field == "mechanism" {
		return len(d.Choices)
	}
	return len(d.levels)
}

// Level renders level idx for display ("udp", "32").
func (d *Dimension) Level(idx int) string {
	if d.Field == "mechanism" {
		return d.Choices[idx]
	}
	return strconv.Itoa(d.levels[idx])
}

// SpaceSize is the number of unique candidate cells in the validated
// space (the full-grid simulation count per workload).
func (sp *Space) SpaceSize() uint64 {
	size := uint64(1)
	for i := range sp.Dims {
		size *= uint64(sp.Dims[i].Count())
	}
	return size
}

// RunID content-addresses a validated space: "t" + the first 32 hex
// chars of the SHA-256 of its canonical JSON (defaults applied, so two
// logically identical tune requests — same space, objective and seed —
// collide, which is the dedup point).
func RunID(sp *Space) string {
	blob, err := json.Marshal(sp)
	if err != nil {
		blob = []byte(fmt.Sprintf("%+v", sp))
	}
	sum := sha256.Sum256(blob)
	return "t" + hex.EncodeToString(sum[:16])
}

// Vector is one candidate: a level index per dimension.
type Vector []int

// Key is the canonical within-run identity of a vector ("2.0.1").
func (sp *Space) Key(v Vector) string {
	var b strings.Builder
	for i, idx := range v {
		if i > 0 {
			b.WriteByte('.')
		}
		b.WriteString(strconv.Itoa(idx))
	}
	return b.String()
}

// Label is the vector's config label inside probe descriptors —
// unique, canonical, and stable across runs ("x2.0.1"), so identical
// probes from different tune runs dedup to the same job and store
// cells.
func (sp *Space) Label(v Vector) string { return "x" + sp.Key(v) }

// baselineLabel is the reserved label of the paired-baseline spec.
const baselineLabel = "baseline"

// Describe renders a vector for humans: "mech=udp l2m=32".
func (sp *Space) Describe(v Vector) string {
	parts := make([]string, len(v))
	for i, idx := range v {
		parts[i] = sp.Dims[i].Name + "=" + sp.Dims[i].Level(idx)
	}
	return strings.Join(parts, " ")
}

// Spec builds the candidate ConfigSpec of a vector: the space's base
// mechanism with each dimension's level applied.
func (sp *Space) Spec(v Vector) experiments.ConfigSpec {
	cs := experiments.ConfigSpec{Label: sp.Label(v), Mechanism: sp.Mechanism}
	for i, idx := range v {
		d := &sp.Dims[i]
		if d.Field == "mechanism" {
			cs.Mechanism = d.Choices[idx]
		} else {
			intFields[d.Field](&cs, d.levels[idx])
		}
	}
	return cs
}

// Enumerate returns every vector of the space in lexicographic order
// (the full grid; tests compare the tuner against it).
func (sp *Space) Enumerate() []Vector {
	total := sp.SpaceSize()
	out := make([]Vector, 0, total)
	cur := make(Vector, len(sp.Dims))
	for {
		out = append(out, append(Vector(nil), cur...))
		i := len(cur) - 1
		for ; i >= 0; i-- {
			cur[i]++
			if cur[i] < sp.Dims[i].Count() {
				break
			}
			cur[i] = 0
		}
		if i < 0 {
			return out
		}
	}
}

// Fidelity is one rung's region budget. Cells probed at different
// fidelities are distinct store cells (instructions and warmup are
// part of the canonical cell key).
type Fidelity struct {
	Rung         int    `json:"rung"`
	Instructions uint64 `json:"instructions"`
	Warmup       uint64 `json:"warmup"`
	Simpoints    int    `json:"simpoints"`
}

// minProbeInstructions floors a rung's measured region; below this the
// ranking signal is noise.
const minProbeInstructions = 10_000

// FidelityAt returns rung r's region budget: the full budget divided
// by eta^(rungs-1-r), floored at minProbeInstructions.
func (sp *Space) FidelityAt(r int) Fidelity {
	div := uint64(1)
	for i := r; i < sp.Search.Rungs-1; i++ {
		div *= uint64(sp.Search.Eta)
	}
	instrs := sp.Instructions / div
	if instrs < minProbeInstructions {
		instrs = min(minProbeInstructions, sp.Instructions)
	}
	return Fidelity{Rung: r, Instructions: instrs, Warmup: sp.Warmup / div, Simpoints: sp.Simpoints}
}

// FullFidelity is the last rung's (full) region budget.
func (sp *Space) FullFidelity() Fidelity { return sp.FidelityAt(sp.Search.Rungs - 1) }

// ProbeDescriptor builds the canonical experiment descriptor that
// evaluates specs at one fidelity: the space's workloads crossed with
// the given candidate specs. The descriptor's name is content-derived,
// so identical probes — across generations, runs, or tuners — dedup to
// one daemon job and one set of store cells.
func (sp *Space) ProbeDescriptor(specs []experiments.ConfigSpec, fid Fidelity) (*experiments.Descriptor, error) {
	blob, _ := json.Marshal(struct {
		W []string
		C []experiments.ConfigSpec
		F Fidelity
	}{sp.Workloads, specs, fid})
	sum := sha256.Sum256(blob)
	d := &experiments.Descriptor{
		Name:         "tune-probe-" + hex.EncodeToString(sum[:6]),
		Workloads:    append([]string(nil), sp.Workloads...),
		Instructions: fid.Instructions,
		Warmup:       fid.Warmup,
		Simpoints:    fid.Simpoints,
		Configs:      append([]experiments.ConfigSpec(nil), specs...),
	}
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("tune: building probe descriptor: %w", err)
	}
	return d, nil
}

// CellKeys returns spec's canonical store keys at a fidelity, one per
// workload in space order — the acquisition-cache lookup a prober does
// before spending a simulation.
func (sp *Space) CellKeys(spec experiments.ConfigSpec, fid Fidelity) ([]string, error) {
	d, err := sp.ProbeDescriptor([]experiments.ConfigSpec{spec}, fid)
	if err != nil {
		return nil, err
	}
	keys := make([]string, len(sp.Workloads))
	for i, w := range sp.Workloads {
		keys[i] = experiments.CellKey(d, w, spec)
	}
	return keys, nil
}

// Score reduces one candidate's per-workload results to the scalar
// objective (always maximized; minimized objectives are negated).
// results must hold one cell per space workload; base (same shape) is
// required only for the speedup objective.
func (sp *Space) Score(results, base []experiments.DescriptorResult) (float64, error) {
	byW := func(rs []experiments.DescriptorResult, w string) (sim.Result, error) {
		for _, r := range rs {
			if r.Workload == w {
				return r.Result, nil
			}
		}
		return sim.Result{}, fmt.Errorf("tune: no result for workload %q", w)
	}
	total := 0.0
	for _, w := range sp.Workloads {
		r, err := byW(results, w)
		if err != nil {
			return 0, err
		}
		switch sp.Objective {
		case ObjectiveIPC:
			total += r.IPC
		case ObjectiveIcacheMPKI:
			total -= r.IcacheMPKI
		case ObjectiveSpeedup:
			b, err := byW(base, w)
			if err != nil {
				return 0, fmt.Errorf("tune: speedup objective: %w", err)
			}
			total += r.Speedup(b)
		default:
			return 0, fmt.Errorf("tune: unknown objective %q", sp.Objective)
		}
	}
	return total / float64(len(sp.Workloads)), nil
}
