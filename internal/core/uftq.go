// Package core implements the paper's two contributions:
//
//   - UFTQ (Section IV-A): dynamic, application-specific sizing of the
//     fetch target queue, driven by measured prefetch utility (AUR),
//     prefetch timeliness (ATR), or both combined through the paper's
//     regression polynomial (ATR-AUR).
//   - UDP (Section IV-B): per-candidate utility learning for FDIP
//     prefetches, with a TAGE-confidence off-path estimator, a
//     Seniority-FTQ that lets off-path candidates survive pipeline
//     flushes, and a Bloom-filter useful-set with 2-/4-line super-line
//     compression.
//
// Both are frontend.Tuner implementations plugged into the decoupled
// frontend by the sim package.
package core

import (
	"fmt"

	"udpsim/internal/bp"
	"udpsim/internal/frontend"
	"udpsim/internal/isa"
	"udpsim/internal/obs"
)

// UFTQMode selects which ratio(s) drive the FTQ sizing.
type UFTQMode uint8

// UFTQ modes (paper Section IV-A).
const (
	// UFTQAUR sizes by utility ratio only.
	UFTQAUR UFTQMode = iota
	// UFTQATR sizes by timeliness ratio only.
	UFTQATR
	// UFTQATRAUR finds QD_AUR and QD_ATR, then combines them with the
	// paper's regression polynomial.
	UFTQATRAUR
)

func (m UFTQMode) String() string {
	switch m {
	case UFTQAUR:
		return "UFTQ-AUR"
	case UFTQATR:
		return "UFTQ-ATR"
	case UFTQATRAUR:
		return "UFTQ-ATR-AUR"
	default:
		return fmt.Sprintf("UFTQMode(%d)", uint8(m))
	}
}

// UFTQConfig parameterizes the controller.
type UFTQConfig struct {
	Mode UFTQMode
	// AUR is the target average utility ratio (the Table III geomean
	// measured on this simulator; the paper's Scarab-trained value was
	// 0.65).
	AUR float64
	// ATR is the target average timeliness ratio (Table III geomean on
	// this simulator; the paper's was 0.75).
	ATR float64
	// Window is the number of observed prefetch outcomes per
	// measurement window (paper: 1000).
	Window int
	// InitialDepth seeds the search (paper: 32).
	InitialDepth int
	// MinDepth/MaxDepth clamp the result; MaxDepth is the physical FTQ.
	MinDepth int
	MaxDepth int
	// Step is the per-window depth adjustment during search.
	Step int
	// Band is the hysteresis around the target ratio.
	Band float64
	// DriftBand triggers a re-search in steady state when the measured
	// ratio leaves target±DriftBand (phase-change adaptation).
	DriftBand float64
}

// DefaultUFTQConfig returns the controller parameters. Following the
// paper's methodology, AUR and ATR are the geomeans of the per-app
// utility and timeliness ratios measured on *this* simulator's Table
// III (the paper trained its 0.65/0.75 on Scarab measurements; the
// ratio scales differ between the two models).
func DefaultUFTQConfig(mode UFTQMode) UFTQConfig {
	return UFTQConfig{
		Mode:         mode,
		AUR:          0.70,
		ATR:          0.93,
		Window:       1000,
		InitialDepth: 32,
		MinDepth:     16,
		MaxDepth:     64, // the paper's example physical FTQ bound
		Step:         4,
		Band:         0.03,
		DriftBand:    0.15,
	}
}

type uftqPhase uint8

const (
	phaseSearchAUR uftqPhase = iota
	phaseSearchATR
	phaseSteady
)

// UFTQ is the dynamic FTQ-sizing controller. The hardware cost is four
// 10-bit window counters, two fixed-point ratio registers, and a small
// state machine (paper Section IV-A).
type UFTQ struct {
	frontend.NopTuner
	cfg UFTQConfig

	depth int

	// Window counters (hardware: 10-bit saturating).
	useful  int
	useless int
	icHits  int
	fbHits  int

	phase      uftqPhase
	lastDir    int // +1/-1 of the previous adjustment, 0 none
	stableRuns int
	driftRuns  int
	qdAUR      int
	qdATR      int

	// Stats
	Windows     uint64
	Adjustments uint64
	Researches  uint64

	// Obs receives uftq-window events when non-nil (nil-guarded
	// observability hooks).
	Obs *obs.Observer
}

// NewUFTQ builds the controller.
func NewUFTQ(cfg UFTQConfig) *UFTQ {
	if cfg.Window <= 0 {
		cfg.Window = 1000
	}
	if cfg.InitialDepth <= 0 {
		cfg.InitialDepth = 32
	}
	if cfg.MinDepth <= 0 {
		cfg.MinDepth = 8
	}
	if cfg.MaxDepth <= cfg.MinDepth {
		cfg.MaxDepth = 128
	}
	if cfg.Step <= 0 {
		cfg.Step = 4
	}
	u := &UFTQ{cfg: cfg, depth: cfg.InitialDepth}
	switch cfg.Mode {
	case UFTQAUR:
		u.phase = phaseSearchAUR
	case UFTQATR:
		u.phase = phaseSearchATR
	default:
		u.phase = phaseSearchAUR
	}
	return u
}

// Name returns the mechanism's display name.
func (u *UFTQ) Name() string { return u.cfg.Mode.String() }

// Depth returns the currently requested FTQ depth.
func (u *UFTQ) Depth() int { return u.depth }

// QDAUR and QDATR expose the converged search results (ATR-AUR mode).
func (u *UFTQ) QDAUR() int { return u.qdAUR }

// QDATR exposes the timeliness search result.
func (u *UFTQ) QDATR() int { return u.qdATR }

// OnPrefetchUseful implements frontend.Tuner.
func (u *UFTQ) OnPrefetchUseful(isa.Addr, bool) {
	u.useful++
	u.maybeEndWindow()
}

// OnPrefetchUseless implements frontend.Tuner.
func (u *UFTQ) OnPrefetchUseless(isa.Addr, bool) {
	u.useless++
	u.maybeEndWindow()
}

// OnDemandFetch implements frontend.Tuner.
func (u *UFTQ) OnDemandFetch(icacheHit, fillBufferHit bool) {
	if icacheHit {
		u.icHits++
	} else if fillBufferHit {
		u.fbHits++
	}
}

// TargetFTQDepth implements frontend.Tuner.
func (u *UFTQ) TargetFTQDepth(int) int { return u.depth }

func (u *UFTQ) maybeEndWindow() {
	if u.useful+u.useless < u.cfg.Window {
		return
	}
	u.Windows++
	ur := ratio(u.useful, u.useless)
	tr := ratio(u.icHits, u.fbHits)
	u.useful, u.useless, u.icHits, u.fbHits = 0, 0, 0, 0
	if u.Obs != nil {
		u.Obs.UFTQWindow(u.depth, ur, tr)
	}

	switch u.cfg.Mode {
	case UFTQAUR:
		u.adjust(u.searchStep(ur, u.cfg.AUR, +1))
	case UFTQATR:
		u.adjust(u.searchStep(tr, u.cfg.ATR, -1))
	case UFTQATRAUR:
		u.stepATRAUR(ur, tr)
	}
}

// searchStep returns the depth delta for one ratio observation.
// sense=+1 means the ratio *falls* as depth grows (utility): measuring
// above target leaves headroom to deepen. sense=-1 means the ratio
// *rises* with depth (timeliness): measuring below target demands more
// runahead.
func (u *UFTQ) searchStep(measured, target float64, sense int) int {
	switch {
	case measured > target+u.cfg.Band:
		return u.cfg.Step * sense
	case measured < target-u.cfg.Band:
		return -u.cfg.Step * sense
	default:
		return 0
	}
}

func (u *UFTQ) adjust(delta int) {
	if delta == 0 {
		u.lastDir = 0
		return
	}
	u.Adjustments++
	u.depth = clamp(u.depth+delta, u.cfg.MinDepth, u.cfg.MaxDepth)
	if delta > 0 {
		u.lastDir = 1
	} else {
		u.lastDir = -1
	}
}

// stepATRAUR runs the two-phase QD search and the polynomial combine.
func (u *UFTQ) stepATRAUR(ur, tr float64) {
	switch u.phase {
	case phaseSearchAUR:
		delta := u.searchStep(ur, u.cfg.AUR, +1)
		if u.converged(delta) {
			u.qdAUR = u.depth
			u.phase = phaseSearchATR
			u.stableRuns = 0
			u.lastDir = 0
			return
		}
		u.adjust(delta)
	case phaseSearchATR:
		delta := u.searchStep(tr, u.cfg.ATR, -1)
		if delta > 0 && ur < u.cfg.AUR-u.cfg.Band {
			// Deepening would chase timeliness with prefetches that are
			// already mostly useless — the xgboost failure mode the
			// combined controller exists to avoid.
			delta = 0
		}
		if u.converged(delta) {
			u.qdATR = u.depth
			u.depth = clamp(CombineQD(u.qdAUR, u.qdATR), u.cfg.MinDepth, u.cfg.MaxDepth)
			u.phase = phaseSteady
			u.stableRuns = 0
			u.driftRuns = 0
			u.lastDir = 0
			return
		}
		u.adjust(delta)
	case phaseSteady:
		// Always-on adaptation (the paper keeps the technique running to
		// follow phase changes): track the utility target with a gentle
		// half-step so the depth drifts toward the warm-phase
		// equilibrium the cold-start search may have missed, and restart
		// the full search on a large timeliness departure. Two guards
		// keep the tracker out of the known failure modes: never deepen
		// when utility is already below target (pollution), and never
		// shrink while timeliness is unsatisfied (starvation).
		switch {
		case ur > u.cfg.AUR+u.cfg.Band:
			u.depth = clamp(u.depth+u.cfg.Step/2, u.cfg.MinDepth, u.cfg.MaxDepth)
		case ur < u.cfg.AUR-u.cfg.Band && tr >= u.cfg.ATR:
			u.depth = clamp(u.depth-u.cfg.Step/2, u.cfg.MinDepth, u.cfg.MaxDepth)
		case ur < u.cfg.AUR-u.cfg.Band && tr < u.cfg.ATR-u.cfg.Band && u.depth < u.cfg.InitialDepth:
			// Both signals are bad (the xgboost category): neither
			// aggression nor throttling is trustworthy, so hold the
			// baseline depth rather than a degenerate extreme.
			u.depth = clamp(u.depth+u.cfg.Step/2, u.cfg.MinDepth, u.cfg.InitialDepth)
		}
		if tr < u.cfg.ATR-u.cfg.DriftBand {
			u.driftRuns++
			if u.driftRuns >= 3 {
				u.phase = phaseSearchAUR
				u.driftRuns = 0
				u.Researches++
			}
		} else {
			u.driftRuns = 0
		}
	}
}

// converged reports search termination: in-band measurement, direction
// flip (oscillation), or pinned at a clamp.
func (u *UFTQ) converged(delta int) bool {
	if delta == 0 {
		u.stableRuns++
		return u.stableRuns >= 2
	}
	if (delta > 0 && u.lastDir < 0) || (delta < 0 && u.lastDir > 0) {
		return true // oscillating around the target
	}
	if (delta < 0 && u.depth == u.cfg.MinDepth) || (delta > 0 && u.depth == u.cfg.MaxDepth) {
		return true // clamped
	}
	u.stableRuns = 0
	return false
}

// CombineQD is the paper's regression polynomial (Section IV-A):
//
//	FTQ = -0.34·QDAUR + 0.64·QDATR + 0.008·QDAUR² + 0.01·QDATR²
//	      − 0.008·QDAUR·QDATR
func CombineQD(qdAUR, qdATR int) int {
	a, t := float64(qdAUR), float64(qdATR)
	v := -0.34*a + 0.64*t + 0.008*a*a + 0.01*t*t - 0.008*a*t
	return int(v + 0.5)
}

// OnCondPrediction implements frontend.Tuner (UFTQ ignores confidence).
func (u *UFTQ) OnCondPrediction(bp.Confidence) {}

func ratio(a, b int) float64 {
	if a+b == 0 {
		return 0
	}
	return float64(a) / float64(a+b)
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
