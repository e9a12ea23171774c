package tune

import (
	"context"
	"fmt"

	"udpsim/internal/experiments"
)

// LocalProber evaluates probes in-process through the experiment
// engine's memoized, store-backed descriptor runner — the prober
// behind `experiment -tune` and the search-invariant tests. When a
// result store is attached it is consulted per cell before anything
// simulates, so a probe whose cells are all known reports Cached and
// costs zero simulations.
type LocalProber struct {
	Space *Space
	// Store, when set, is the acquisition cache (and write-back target
	// for fresh cells, via the engine).
	Store experiments.ResultStore
	// Parallelism bounds concurrent cell simulation (0 = GOMAXPROCS).
	Parallelism int
}

// Probe implements Prober.
func (p *LocalProber) Probe(ctx context.Context, specs []experiments.ConfigSpec, fid Fidelity, class ProbeClass) ([]Outcome, error) {
	return ProbeStoreFirst(p.Store, p.Space, specs, fid, func(d *experiments.Descriptor) ([]experiments.DescriptorResult, error) {
		return experiments.RunDescriptorObserved(d, nil, p.Parallelism, experiments.Options{Context: ctx, Store: p.Store})
	}, nil)
}

// ProbeStoreFirst is the probe sequence of every prober. It builds the
// probe descriptor of specs at fid, answers each spec whose cells are
// all in st from the store (Outcome.Cached), runs the rest as one
// sub-descriptor through run, and splits run's workload-major results
// per label. Probers differ only in run: the engine in-process
// (LocalProber) or a job on the daemon's queue. counted, when non-nil,
// is told once the store lookups end — finished or failed — how many
// specs the probe holds and how many the store answered.
func ProbeStoreFirst(st experiments.ResultStore, sp *Space, specs []experiments.ConfigSpec, fid Fidelity,
	run func(*experiments.Descriptor) ([]experiments.DescriptorResult, error), counted func(probes, hits int)) ([]Outcome, error) {
	d, err := sp.ProbeDescriptor(specs, fid)
	if err != nil {
		return nil, err
	}
	outs := make([]Outcome, len(specs))
	var missing []experiments.ConfigSpec
	hits := 0
	for i, cs := range specs {
		var ok bool
		if outs[i], ok, err = outcomeFromStore(st, sp, d, cs); err != nil {
			break
		}
		if ok {
			hits++
		} else {
			missing = append(missing, cs)
		}
	}
	if counted != nil {
		counted(len(specs), hits)
	}
	if err != nil {
		return nil, err
	}
	if len(missing) == 0 {
		return outs, nil
	}
	sub, err := sp.ProbeDescriptor(missing, fid)
	if err != nil {
		return nil, err
	}
	results, err := run(sub)
	if err != nil {
		return nil, err
	}
	byLabel := map[string][]experiments.DescriptorResult{} // workload order kept per label
	for _, r := range results {
		byLabel[r.Label] = append(byLabel[r.Label], r)
	}
	for i, cs := range specs {
		if outs[i].Cached {
			continue
		}
		rs, ok := byLabel[cs.Label]
		if !ok {
			return nil, fmt.Errorf("tune: probe %s returned no cells for label %q", sub.Name, cs.Label)
		}
		outs[i] = Outcome{Results: rs}
	}
	return outs, nil
}

// outcomeFromStore assembles one spec's outcome entirely from a result
// store (ok=false when any cell is missing) — the acquisition-cache
// probe of ProbeStoreFirst.
func outcomeFromStore(st experiments.ResultStore, sp *Space, d *experiments.Descriptor, cs experiments.ConfigSpec) (Outcome, bool, error) {
	if st == nil {
		return Outcome{}, false, nil
	}
	results := make([]experiments.DescriptorResult, 0, len(sp.Workloads))
	for _, w := range sp.Workloads {
		res, ok, err := st.Load(experiments.CellKey(d, w, cs))
		if err != nil {
			return Outcome{}, false, err
		}
		if !ok {
			return Outcome{}, false, nil
		}
		results = append(results, experiments.DescriptorResult{Workload: w, Label: cs.Label, Result: res})
	}
	return Outcome{Results: results, Cached: true}, true, nil
}
