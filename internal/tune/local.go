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
	d, err := p.Space.ProbeDescriptor(specs, fid)
	if err != nil {
		return nil, err
	}
	outs := make([]Outcome, len(specs))
	var missing []experiments.ConfigSpec
	for i, cs := range specs {
		out, ok, err := OutcomeFromStore(p.Store, p.Space, d, cs)
		if err != nil {
			return nil, err
		}
		if ok {
			outs[i] = out
		} else {
			missing = append(missing, cs)
		}
	}
	if len(missing) > 0 {
		sub, err := p.Space.ProbeDescriptor(missing, fid)
		if err != nil {
			return nil, err
		}
		results, err := experiments.RunDescriptorObserved(sub, nil, p.Parallelism,
			experiments.Options{Context: ctx, Store: p.Store})
		if err != nil {
			return nil, err
		}
		byLabel := SplitByLabel(results)
		for i, cs := range specs {
			if outs[i].Results != nil {
				continue
			}
			rs, ok := byLabel[cs.Label]
			if !ok {
				return nil, fmt.Errorf("tune: engine returned no cells for label %q", cs.Label)
			}
			outs[i] = Outcome{Results: rs}
		}
	}
	return outs, nil
}

// OutcomeFromStore assembles one spec's outcome entirely from a result
// store (ok=false when any cell is missing) — the acquisition-cache
// probe shared by LocalProber and the daemon's queue-backed prober.
func OutcomeFromStore(st experiments.ResultStore, sp *Space, d *experiments.Descriptor, cs experiments.ConfigSpec) (Outcome, bool, error) {
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

// SplitByLabel groups a probe descriptor's workload-major results per
// config label, keeping workload order.
func SplitByLabel(results []experiments.DescriptorResult) map[string][]experiments.DescriptorResult {
	out := map[string][]experiments.DescriptorResult{}
	for _, r := range results {
		out[r.Label] = append(out[r.Label], r)
	}
	return out
}
