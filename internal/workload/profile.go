// Package workload synthesizes the datacenter applications the paper
// evaluates. The real study traced mysql, postgres, clang, gcc, drupal,
// verilator, mongodb, tomcat, xgboost and mediawiki with DynamoRIO and
// Intel PT; those traces are proprietary and tied to x86 binaries, so
// this package builds the closest synthetic equivalent: a *static
// program image* (basic blocks laid out at real addresses with
// conditional branches, if/else merge diamonds, loops, direct and
// indirect calls) plus an architectural executor that walks it to
// produce the on-path instruction stream.
//
// Crucially, the frontend model predicts over the *same static image*,
// so wrong-path fetch traverses real code: off-path prefetches of
// post-merge-point lines are genuinely useful later, which is the exact
// phenomenon UDP learns (paper Section III-E).
//
// Each profile is calibrated against the per-application characteristics
// the paper reports (Table III and Section III): instruction footprint,
// branch predictability, BTB pressure, code reuse, and merge-point
// density.
package workload

import (
	"fmt"
	"math"
	"strings"
)

// CondBehavior classifies how a conditional branch resolves dynamically.
type CondBehavior uint8

// Conditional branch behaviours.
const (
	// CondBiased branches go one way with high probability; easily
	// predicted by counters.
	CondBiased CondBehavior = iota
	// CondPeriodic branches follow a short repeating pattern; learnable
	// from global/local history (TAGE-friendly).
	CondPeriodic
	// CondIID branches flip an independent coin each instance; the
	// hardest case, approximating data-dependent branches (xgboost's
	// decision trees).
	CondIID
	// CondLoop branches are loop back-edges with a trip count.
	CondLoop
)

func (b CondBehavior) String() string {
	switch b {
	case CondBiased:
		return "biased"
	case CondPeriodic:
		return "periodic"
	case CondIID:
		return "iid"
	case CondLoop:
		return "loop"
	default:
		return fmt.Sprintf("behavior(%d)", uint8(b))
	}
}

// Profile parameterizes the synthetic application generator.
type Profile struct {
	Name string
	// Seed drives both image generation and execution randomness.
	Seed uint64

	// --- code footprint ---

	// Funcs is the number of generated functions.
	Funcs int
	// StmtsPerFunc bounds the number of top-level statements per
	// function body [min,max].
	StmtsPerFunc [2]int
	// BBLInstrs bounds straight-line basic block length [min,max].
	BBLInstrs [2]int

	// --- control-flow statement mix (weights, normalized) ---

	WStraight float64 // plain basic block
	WDiamond  float64 // if/else with merge point
	WLoop     float64 // counted loop
	WCall     float64 // direct call to a deeper function
	WSwitch   float64 // indirect jump over case blocks with merge

	// MaxDepth bounds statement nesting within a function.
	MaxDepth int
	// NestProb is the probability that a diamond arm or loop body
	// contains a nested statement (deep nesting makes wrong paths
	// diverge into code the correct path never reaches — decision-tree
	// behaviour).
	NestProb float64
	// MaxCallDepth bounds the static call-graph depth.
	MaxCallDepth int

	// --- branch behaviour mixture for diamond conditions ---

	FracBiased   float64 // probability a cond is CondBiased
	FracPeriodic float64 // probability a cond is CondPeriodic
	// remainder is CondIID
	BiasedP float64 // taken probability of biased branches (~0.05..0.1 toward fallthrough)
	IIDP    float64 // taken probability of iid branches (~0.5)

	// --- loops ---

	LoopTrip [2]int
	// LoopTripVariable makes trip counts vary per loop entry
	// (defeating the loop predictor).
	LoopTripVariable bool

	// --- indirect control flow ---

	SwitchTargets [2]int // case-count range of switch statements
	// DispatchTargets is how many functions the top-level dispatcher
	// indirect call selects among.
	DispatchTargets int
	// DispatchZipf is the skew of the dispatcher's function popularity
	// (higher = more reuse of few hot functions).
	DispatchZipf float64
	// DispatchSequential makes the dispatcher cycle through its targets
	// round-robin instead of sampling: every pass touches the whole
	// footprint in the same order (verilator-style generated evaluation
	// code).
	DispatchSequential bool

	// --- data side ---

	LoadFrac  float64 // fraction of straight-line instrs that are loads
	StoreFrac float64
	// DataRandFrac is the fraction of loads touching a large random
	// region (dcache misses); the rest hit small hot/stream regions.
	DataRandFrac float64
	// DataRegionBytes is the size of the random data region, at most
	// MaxDataRegionBytes; 0 means 16 MiB.
	DataRegionBytes uint64

	// --- phases ---

	// PhaseLen rotates the dispatcher's hot set every PhaseLen dynamic
	// instructions (0 = single phase). Exercises UFTQ's always-on
	// adaptation.
	PhaseLen uint64
}

// Validate reports obviously broken profiles.
func (p *Profile) Validate() error {
	if p.Funcs <= 0 {
		return fmt.Errorf("workload %s: Funcs must be positive", p.Name)
	}
	if p.StmtsPerFunc[0] <= 0 || p.StmtsPerFunc[1] < p.StmtsPerFunc[0] {
		return fmt.Errorf("workload %s: bad StmtsPerFunc %v", p.Name, p.StmtsPerFunc)
	}
	if p.BBLInstrs[0] <= 0 || p.BBLInstrs[1] < p.BBLInstrs[0] {
		return fmt.Errorf("workload %s: bad BBLInstrs %v", p.Name, p.BBLInstrs)
	}
	if w := p.WStraight + p.WDiamond + p.WLoop + p.WCall + p.WSwitch; w <= 0 {
		return fmt.Errorf("workload %s: statement weights sum to %v", p.Name, w)
	}
	if p.FracBiased+p.FracPeriodic > 1 {
		return fmt.Errorf("workload %s: branch behaviour fractions exceed 1", p.Name)
	}
	if p.DispatchTargets > p.Funcs {
		return fmt.Errorf("workload %s: DispatchTargets %d exceeds Funcs %d", p.Name, p.DispatchTargets, p.Funcs)
	}
	if p.LoopTrip[0] <= 0 || p.LoopTrip[1] < p.LoopTrip[0] {
		return fmt.Errorf("workload %s: bad LoopTrip %v", p.Name, p.LoopTrip)
	}
	if p.SwitchTargets[0] < 2 || p.SwitchTargets[1] < p.SwitchTargets[0] {
		return fmt.Errorf("workload %s: bad SwitchTargets %v", p.Name, p.SwitchTargets)
	}
	if p.DataRegionBytes > MaxDataRegionBytes {
		return fmt.Errorf("workload %s: DataRegionBytes %d exceeds %d", p.Name, p.DataRegionBytes, uint64(MaxDataRegionBytes))
	}
	return nil
}

// MaxDataRegionBytes bounds Profile.DataRegionBytes: the random region
// starts at 0x2000_0000 and must end by 0x3000_0000, where the
// executor's stream region begins.
const MaxDataRegionBytes = 1 << 28

// Key returns the canonical, collision-free serialization of every
// profile field. It is the synthetic half of the workload-source cache
// identity (sim.ProfileKey delegates here), so its byte layout is
// load-bearing: persisted result-store entries are keyed on it. Change
// it only with a store migration.
func (p Profile) Key() string {
	var b strings.Builder
	b.Grow(256)
	fmt.Fprintf(&b, "name=%s|seed=%d|funcs=%d|stmts=%d-%d|bbl=%d-%d",
		p.Name, p.Seed, p.Funcs,
		p.StmtsPerFunc[0], p.StmtsPerFunc[1], p.BBLInstrs[0], p.BBLInstrs[1])
	fmt.Fprintf(&b, "|wmix=%g/%g/%g/%g/%g|depth=%d|nest=%g|calldepth=%d",
		p.WStraight, p.WDiamond, p.WLoop, p.WCall, p.WSwitch,
		p.MaxDepth, p.NestProb, p.MaxCallDepth)
	fmt.Fprintf(&b, "|frac=%g/%g|biasp=%g|iidp=%g",
		p.FracBiased, p.FracPeriodic, p.BiasedP, p.IIDP)
	fmt.Fprintf(&b, "|trip=%d-%d,var=%t|sw=%d-%d|disp=%d,zipf=%g,seq=%t",
		p.LoopTrip[0], p.LoopTrip[1], p.LoopTripVariable,
		p.SwitchTargets[0], p.SwitchTargets[1],
		p.DispatchTargets, p.DispatchZipf, p.DispatchSequential)
	fmt.Fprintf(&b, "|load=%g|store=%g|rand=%g|region=%d|phase=%d",
		p.LoadFrac, p.StoreFrac, p.DataRandFrac, p.DataRegionBytes, p.PhaseLen)
	return b.String()
}

// rng is a SplitMix64 deterministic generator; the generator and the
// executor each derive independent streams from Profile.Seed.
type rng struct{ state uint64 }

// rngGamma is SplitMix64's state increment per draw.
const rngGamma = 0x9e3779b97f4a7c15

func newRNG(seed uint64) *rng { return &rng{state: seed ^ rngGamma} }

func (r *rng) next() uint64 {
	r.state += rngGamma
	z := r.state
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// skip advances past n draws without computing them: the state is a
// counter, so this is one multiply-add.
func (r *rng) skip(n uint64) { r.state += n * rngGamma }

// intn returns a uniform int in [0, n).
func (r *rng) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.next() % uint64(n))
}

// rangeIn returns a uniform int in [lo, hi].
func (r *rng) rangeIn(lo, hi int) int {
	if hi <= lo {
		return lo
	}
	return lo + r.intn(hi-lo+1)
}

// float returns a uniform float64 in [0, 1).
func (r *rng) float() float64 {
	return float64(r.next()>>11) / float64(1<<53)
}

// zipfWeights precomputes a Zipf(s) popularity distribution over n items
// as a cumulative table for sampling.
func zipfWeights(n int, s float64, r *rng) []float64 {
	w := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		w[i] = 1.0 / math.Pow(float64(i+1), s)
		sum += w[i]
	}
	cum := 0.0
	for i := 0; i < n; i++ {
		cum += w[i] / sum
		w[i] = cum
	}
	// Rank-to-function scattering is applied by the caller.
	_ = r
	return w
}
