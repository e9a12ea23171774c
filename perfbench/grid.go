package main

import (
	"fmt"
	"reflect"
	"time"

	"udpsim/internal/experiments"
	"udpsim/internal/sim"
	"udpsim/internal/workload"
)

// gridCold is the Fig. 13 grid a researcher runs (figures -fig 13
// -quick): baseline plus the UDP series on a server, a compiler and the
// two footprint extremes, through the in-process experiment engine,
// unbatched, with the result cache flushed before every round. Nearly
// all host time is the cycle loop fed by the synthetic executor.
type gridCold struct {
	d          *experiments.Descriptor
	first      []experiments.DescriptorResult
	generateMS []float64
}

var gridApps = []string{"mysql", "clang", "verilator", "xgboost"}

// gridConfigs is baseline plus experiments.UDPSeries, spelled as
// descriptor configs (the same cells Figure13 builds).
var gridConfigs = []experiments.ConfigSpec{
	{Label: "baseline", Mechanism: "baseline"},
	{Label: "udp", Mechanism: "udp"},
	{Label: "udp-infinite", Mechanism: "udp-infinite"},
	{Label: "eip", Mechanism: "eip"},
	{Label: "icache-40k", Mechanism: "baseline", ICacheKB: 40},
}

// The engine pins each app's executor salt to its simpoint, so the seed
// reaches the simulated cells by shifting the measured region length
// (by under 1% of it); it also names the descriptor.
func (g *gridCold) setup(e *env, first bool) error {
	for _, app := range gridApps {
		p := workload.MustByName(app)
		t0 := time.Now()
		var err error
		if first {
			_, err = sim.SharedImage(p) // the engine reuses this image
		} else {
			_, err = workload.Generate(p)
		}
		if err != nil {
			return err
		}
		g.generateMS = append(g.generateMS, float64(time.Since(t0).Microseconds())/1000)
	}
	if first {
		g.d = &experiments.Descriptor{
			Name:         fmt.Sprintf("grid-cold-%x", e.seed),
			Workloads:    gridApps,
			Instructions: e.size.gridInstr + e.seed%1024,
			Warmup:       e.size.gridWarmup,
			Simpoints:    1,
			Configs:      gridConfigs,
		}
		return g.d.Validate()
	}
	return nil
}

func (g *gridCold) round(e *env) (roundResult, error) {
	experiments.FlushResultCache()
	res, err := experiments.RunDescriptor(g.d, nil, workers)
	if !e.check(err == nil, "grid run failed: %v", err) {
		return roundResult{}, err
	}
	for i, r := range res {
		checkRetired(e, r.Workload+"/"+r.Label, r.Result, g.d.Instructions)
		if g.first != nil {
			e.check(reflect.DeepEqual(r.Result, g.first[i].Result),
				"grid cell %s/%s differs between rounds", r.Workload, r.Label)
		}
	}
	if g.first == nil {
		g.first = res
	}
	return roundResult{simInstr: uint64(len(res)) * (g.d.Instructions + g.d.Warmup)}, nil
}

func (g *gridCold) finish(e *env) error {
	rs := make([]sim.Result, len(g.first))
	for i, r := range g.first {
		rs[i] = r.Result
	}
	printDigest("grid-cold", rs)
	v, violated := calibViolations(g.first)
	fmt.Printf("# calib_violations %d of %d %v\n", v, 4*len(gridApps)+1, violated)
	return nil
}

// calibViolations counts DESIGN.md's Fig. 13 targets the grid misses:
// per app udp > baseline, udp-infinite >= udp, eip < udp and
// icache-40k < udp (by IPC), and globally the largest UDP win on
// xgboost.
func calibViolations(res []experiments.DescriptorResult) (int, []string) {
	cell := map[string]map[string]sim.Result{}
	for _, r := range res {
		if cell[r.Workload] == nil {
			cell[r.Workload] = map[string]sim.Result{}
		}
		cell[r.Workload][r.Label] = r.Result
	}
	var violated []string
	rule := func(ok bool, name string) {
		if !ok {
			violated = append(violated, name)
		}
	}
	best, bestWin := "", 0.0
	for _, app := range gridApps {
		c := cell[app]
		udp := c["udp"].IPC
		rule(udp > c["baseline"].IPC, app+":udp>baseline")
		rule(c["udp-infinite"].IPC >= udp, app+":udp-infinite>=udp")
		rule(c["eip"].IPC < udp, app+":eip<udp")
		rule(c["icache-40k"].IPC < udp, app+":icache-40k<udp")
		if win := c["udp"].Speedup(c["baseline"]); best == "" || win > bestWin {
			best, bestWin = app, win
		}
	}
	rule(best == "xgboost", "largest-udp-win-on-xgboost")
	return len(violated), violated
}

// traced probes the xgboost UDP cell; the batch group is xgboost's five
// grid configs at a shorter region.
func (g *gridCold) traced(e *env) error {
	cfg := experiments.CellConfig(g.d, "xgboost", spec(g.d, "udp"))
	cfg.SeedSalt = sim.SimpointSalt(0)
	prog, err := sim.SharedImage(cfg.Workload)
	if err != nil {
		return err
	}
	var batch []sim.Config
	for _, cs := range g.d.Configs {
		c := experiments.CellConfig(g.d, "xgboost", cs)
		c.SeedSalt = cfg.SeedSalt
		c.WarmupInstructions, c.MaxInstructions = e.size.batchWarmup, e.size.batchInstr
		batch = append(batch, c)
	}
	p := &simProbe{
		cfg: cfg, prog: prog, batch: batch, execProg: prog, salt: cfg.SeedSalt,
		generateMS: median(g.generateMS), description: "grid-cold xgboost/udp",
	}
	if err := p.run(e); err != nil {
		return err
	}
	return serviceLayers(e)
}

func (g *gridCold) close() {}
