// Package udpsim is the public API of the UDP reproduction: a
// cycle-level CPU frontend simulator with fetch-directed instruction
// prefetching (FDIP) and the two mechanisms from "UDP: Utility-Driven
// Fetch Directed Instruction Prefetching" (ISCA 2024) — UFTQ (dynamic
// fetch-target-queue sizing) and UDP (per-candidate prefetch utility
// learning).
//
// Quick start:
//
//	cfg := udpsim.NewConfig("xgboost", udpsim.MechUDP)
//	cfg.MaxInstructions = 1_000_000
//	res, err := udpsim.Run(cfg)
//	fmt.Printf("IPC %.3f, icache MPKI %.1f\n", res.IPC, res.IcacheMPKI)
//
// The package re-exports the building blocks from internal packages so
// downstream code can assemble custom machines, define new synthetic
// workloads, or plug in new Tuner mechanisms. ExampleRun in
// example_test.go is the runnable tour; examples/udpdeepdive steps a
// Machine cycle by cycle, and the cmd/ tools drive every paper figure.
package udpsim

import (
	"fmt"

	"udpsim/internal/experiments"
	"udpsim/internal/sim"
	"udpsim/internal/workload"
)

// Mechanism selects the instruction-prefetch policy under evaluation.
type Mechanism = sim.Mechanism

// The mechanisms evaluated in the paper.
const (
	MechBaseline      = sim.MechBaseline
	MechNoPrefetch    = sim.MechNoPrefetch
	MechPerfectICache = sim.MechPerfectICache
	MechUFTQAUR       = sim.MechUFTQAUR
	MechUFTQATR       = sim.MechUFTQATR
	MechUFTQATRAUR    = sim.MechUFTQATRAUR
	MechUDP           = sim.MechUDP
	MechUDPInfinite   = sim.MechUDPInfinite
	MechEIP           = sim.MechEIP
)

// Config is a full simulation configuration (Table II defaults).
type Config = sim.Config

// Result is the measured outcome of a simulation region.
type Result = sim.Result

// Machine is one assembled simulated core; use it directly for
// cycle-by-cycle control (see examples/udpdeepdive).
type Machine = sim.Machine

// Profile parameterizes the synthetic workload generator.
type Profile = workload.Profile

// Workloads returns the names of the ten datacenter applications the
// paper evaluates, in plotting order.
func Workloads() []string {
	out := make([]string, len(workload.Names))
	copy(out, workload.Names)
	return out
}

// WorkloadProfile returns the synthetic profile for one of the paper's
// applications.
func WorkloadProfile(name string) (Profile, error) {
	p, ok := workload.ByName(name)
	if !ok {
		return Profile{}, fmt.Errorf("udpsim: unknown workload %q (have %v)", name, workload.Names)
	}
	return p, nil
}

// NewConfig returns the paper's Table II configuration for a named
// workload under a mechanism. It panics on an unknown workload name;
// use WorkloadProfile + NewConfigFor for error handling.
func NewConfig(workloadName string, m Mechanism) Config {
	return sim.NewConfig(workload.MustByName(workloadName), m)
}

// NewConfigFor returns the Table II configuration for a custom profile.
func NewConfigFor(p Profile, m Mechanism) Config {
	return sim.NewConfig(p, m)
}

// NewMachine builds a machine from a configuration.
func NewMachine(cfg Config) (*Machine, error) {
	return sim.NewMachine(cfg)
}

// Run generates the workload image, simulates one region, and returns
// the aggregate result.
func Run(cfg Config) (Result, error) {
	return sim.RunOne(cfg)
}

// RunSimpoints simulates n independent regions (the paper's simpoint
// methodology) and returns per-region results plus their aggregate.
func RunSimpoints(cfg Config, n int) ([]Result, Result, error) {
	return sim.RunSimpoints(cfg, n)
}

// Speedup returns r's fractional IPC speedup over base.
func Speedup(r, base Result) float64 { return r.Speedup(base) }

// Geomean aggregates fractional speedups geometrically.
func Geomean(speedups []float64) float64 { return sim.Geomean(speedups) }

// ExperimentOptions controls the figure-regeneration harness.
type ExperimentOptions = experiments.Options

// DefaultExperimentOptions returns the evaluation fidelity used by
// cmd/figures.
func DefaultExperimentOptions() ExperimentOptions { return experiments.DefaultOptions() }
