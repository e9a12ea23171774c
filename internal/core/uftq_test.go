package core

import (
	"testing"

	"udpsim/internal/isa"
)

// feedWindow pushes one full measurement window with the given utility
// and timeliness ratios.
func feedWindow(u *UFTQ, utility, timeliness float64) {
	w := 100
	useful := int(float64(w) * utility)
	// Demand events: produce the desired icache/(icache+fb) ratio.
	demand := 100
	ic := int(float64(demand) * timeliness)
	for i := 0; i < demand; i++ {
		u.OnDemandFetch(i < ic, i >= ic)
	}
	for i := 0; i < w; i++ {
		if i < useful {
			u.OnPrefetchUseful(0, false)
		} else {
			u.OnPrefetchUseless(0, false)
		}
	}
}

func testUFTQ(mode UFTQMode) *UFTQ {
	cfg := DefaultUFTQConfig(mode)
	cfg.Window = 100
	return NewUFTQ(cfg)
}

func TestUFTQAURGrowsOnHighUtility(t *testing.T) {
	u := testUFTQ(UFTQAUR)
	start := u.Depth()
	for i := 0; i < 5; i++ {
		feedWindow(u, 0.95, 0.9) // utility far above target
	}
	if u.Depth() <= start {
		t.Errorf("depth %d did not grow from %d", u.Depth(), start)
	}
}

func TestUFTQAURShrinksOnLowUtility(t *testing.T) {
	u := testUFTQ(UFTQAUR)
	start := u.Depth()
	for i := 0; i < 5; i++ {
		feedWindow(u, 0.2, 0.9)
	}
	if u.Depth() >= start {
		t.Errorf("depth %d did not shrink from %d", u.Depth(), start)
	}
}

func TestUFTQATRGrowsOnPoorTimeliness(t *testing.T) {
	u := testUFTQ(UFTQATR)
	start := u.Depth()
	for i := 0; i < 5; i++ {
		feedWindow(u, 0.7, 0.5) // untimely: needs more runahead
	}
	if u.Depth() <= start {
		t.Errorf("depth %d did not grow from %d", u.Depth(), start)
	}
}

func TestUFTQATRShrinksOnHighTimeliness(t *testing.T) {
	u := testUFTQ(UFTQATR)
	start := u.Depth()
	for i := 0; i < 5; i++ {
		feedWindow(u, 0.7, 1.0)
	}
	if u.Depth() >= start {
		t.Errorf("depth %d did not shrink from %d", u.Depth(), start)
	}
}

func TestUFTQDepthClamped(t *testing.T) {
	cfg := DefaultUFTQConfig(UFTQAUR)
	cfg.Window = 100
	cfg.MinDepth = 8
	cfg.MaxDepth = 64
	u := NewUFTQ(cfg)
	for i := 0; i < 50; i++ {
		feedWindow(u, 1.0, 0.9)
	}
	if u.Depth() != 64 {
		t.Errorf("depth %d not clamped to max", u.Depth())
	}
	for i := 0; i < 50; i++ {
		feedWindow(u, 0.0, 0.9)
	}
	if u.Depth() != 8 {
		t.Errorf("depth %d not clamped to min", u.Depth())
	}
}

func TestUFTQInBandStops(t *testing.T) {
	cfg := DefaultUFTQConfig(UFTQAUR)
	cfg.Window = 100
	u := NewUFTQ(cfg)
	for i := 0; i < 4; i++ {
		feedWindow(u, cfg.AUR, 0.9) // exactly on target
	}
	if u.Depth() != cfg.InitialDepth {
		t.Errorf("depth %d moved while in band", u.Depth())
	}
	if u.Adjustments != 0 {
		t.Errorf("%d adjustments in band", u.Adjustments)
	}
}

func TestUFTQATRAURConvergesAndCombines(t *testing.T) {
	cfg := DefaultUFTQConfig(UFTQATRAUR)
	cfg.Window = 100
	u := NewUFTQ(cfg)
	// Drive both ratios exactly to target: the two searches converge
	// in place (stable runs) and the polynomial fires.
	for i := 0; i < 12; i++ {
		feedWindow(u, cfg.AUR, cfg.ATR)
	}
	if u.phase != phaseSteady {
		t.Fatalf("controller in phase %d, want steady", u.phase)
	}
	if u.QDAUR() == 0 || u.QDATR() == 0 {
		t.Errorf("QD values not recorded: %d/%d", u.QDAUR(), u.QDATR())
	}
	want := clamp(CombineQD(u.QDAUR(), u.QDATR()), cfg.MinDepth, cfg.MaxDepth)
	if u.Depth() != want {
		t.Errorf("depth %d, polynomial says %d", u.Depth(), want)
	}
}

func TestUFTQDriftTriggersResearch(t *testing.T) {
	cfg := DefaultUFTQConfig(UFTQATRAUR)
	cfg.Window = 100
	u := NewUFTQ(cfg)
	for i := 0; i < 12; i++ {
		feedWindow(u, cfg.AUR, cfg.ATR)
	}
	if u.phase != phaseSteady {
		t.Fatal("not steady")
	}
	// Phase change: timeliness collapses far below target.
	for i := 0; i < 5; i++ {
		feedWindow(u, cfg.AUR, cfg.ATR-u.cfg.DriftBand-0.2)
	}
	if u.Researches == 0 {
		t.Error("drift did not trigger a re-search")
	}
}

func TestCombineQDPolynomial(t *testing.T) {
	// Spot-check against the paper's formula.
	cases := []struct {
		a, t, want int
	}{
		{22, 22, 11}, // -7.48+14.08+3.872+4.84-3.872 = 11.44
		{60, 60, 54},
		{0, 0, 0},
	}
	for _, c := range cases {
		if got := CombineQD(c.a, c.t); got != c.want {
			t.Errorf("CombineQD(%d, %d) = %d, want %d", c.a, c.t, got, c.want)
		}
	}
}

func TestUFTQNames(t *testing.T) {
	for _, m := range []UFTQMode{UFTQAUR, UFTQATR, UFTQATRAUR} {
		if NewUFTQ(DefaultUFTQConfig(m)).Name() == "" {
			t.Error("empty name")
		}
	}
	if UFTQMode(9).String() == "" {
		t.Error("empty string for unknown mode")
	}
}

func TestUFTQDefaultsApplied(t *testing.T) {
	u := NewUFTQ(UFTQConfig{Mode: UFTQATR})
	if u.cfg.Window != 1000 || u.cfg.InitialDepth != 32 || u.cfg.MinDepth <= 0 || u.cfg.MaxDepth <= u.cfg.MinDepth {
		t.Errorf("zero-value config not defaulted: %+v", u.cfg)
	}
	if u.TargetFTQDepth(99) != 32 {
		t.Errorf("TargetFTQDepth = %d", u.TargetFTQDepth(99))
	}
}

func TestRatioHelper(t *testing.T) {
	if ratio(0, 0) != 0 {
		t.Error("ratio(0,0)")
	}
	if ratio(3, 1) != 0.75 {
		t.Error("ratio(3,1)")
	}
	_ = isa.Addr(0)
}
