package bp

import (
	"testing"
	"testing/quick"

	"udpsim/internal/isa"
)

// trainLoop drives a predictor through n instances of a branch at pc
// with outcomes from gen, following the speculative-update contract,
// and returns the accuracy.
func trainLoop(p DirectionPredictor, pc isa.Addr, n int, gen func(i int) bool) float64 {
	correct := 0
	for i := 0; i < n; i++ {
		actual := gen(i)
		pred := p.Predict(pc)
		p.SpecUpdate(pc, actual) // resolve immediately (no wrong path)
		if pred.Taken == actual {
			correct++
		}
		p.Train(pc, actual, pred)
	}
	return float64(correct) / float64(n)
}

// bimodal is a per-PC 2-bit-counter predictor with no history: the
// weakest baseline, which TAGE must beat on patterns that need history.
type bimodal struct{ table [1 << 12]int8 }

func newBimodal() *bimodal {
	b := &bimodal{}
	for i := range b.table {
		b.table[i] = -1 // weakly not-taken
	}
	return b
}

func (b *bimodal) Name() string { return "bimodal" }

func (b *bimodal) Predict(pc isa.Addr) Prediction {
	i := uint32(uint64(pc)>>2) % uint32(len(b.table))
	return Prediction{Taken: b.table[i] >= 0, bimIdx: i}
}

func (b *bimodal) SpecUpdate(isa.Addr, bool) {}
func (b *bimodal) Snapshot() HistState       { return HistState{} }
func (b *bimodal) Restore(HistState)         {}

func (b *bimodal) Train(_ isa.Addr, taken bool, pred Prediction) {
	c := &b.table[pred.bimIdx]
	if taken {
		*c = satInc8(*c, 1)
	} else {
		*c = satDec8(*c, -2)
	}
}

func predictors() map[string]func() DirectionPredictor {
	return map[string]func() DirectionPredictor{
		"tage":    func() DirectionPredictor { return NewTage(DefaultTageConfig()) },
		"bimodal": func() DirectionPredictor { return newBimodal() },
	}
}

func TestAlwaysTakenLearned(t *testing.T) {
	for name, mk := range predictors() {
		acc := trainLoop(mk(), 0x401000, 500, func(int) bool { return true })
		if acc < 0.95 {
			t.Errorf("%s: always-taken accuracy %.2f", name, acc)
		}
	}
}

func TestBiasedLearned(t *testing.T) {
	for name, mk := range predictors() {
		// Taken except every 16th instance.
		acc := trainLoop(mk(), 0x402000, 1000, func(i int) bool { return i%16 != 0 })
		if acc < 0.9 {
			t.Errorf("%s: biased accuracy %.2f", name, acc)
		}
	}
}

func TestTageLearnsPeriodicPattern(t *testing.T) {
	// Period-7 patterns defeat bimodal but are trivial for global
	// history: TAGE must clearly beat it.
	pattern := func(i int) bool { return i%7 == 2 || i%7 == 5 }
	tageAcc := trainLoop(NewTage(DefaultTageConfig()), 0x403000, 4000, pattern)
	bimAcc := trainLoop(newBimodal(), 0x403000, 4000, pattern)
	if tageAcc < 0.9 {
		t.Errorf("TAGE periodic accuracy %.3f", tageAcc)
	}
	if tageAcc < bimAcc+0.2 {
		t.Errorf("TAGE (%.3f) not clearly above bimodal (%.3f) on periodic pattern", tageAcc, bimAcc)
	}
}

func TestLoopPredictorLearnsTripCount(t *testing.T) {
	// A loop with a fixed trip count of 21: taken 20 times, then one
	// not-taken. Counter predictors miss the exit; the loop predictor
	// should nail it after a few trips.
	const trip = 21
	p := NewTage(DefaultTageConfig())
	gen := func(i int) bool { return i%trip != trip-1 }
	// Warm.
	trainLoop(p, 0x404000, trip*40, gen)
	// Measure exits only.
	exits, hits := 0, 0
	for i := 0; i < trip*20; i++ {
		actual := gen(i)
		pred := p.Predict(0x404000)
		p.SpecUpdate(0x404000, actual)
		if !actual {
			exits++
			if !pred.Taken {
				hits++
			}
		}
		p.Train(0x404000, actual, pred)
	}
	if exits == 0 {
		t.Fatal("no exits measured")
	}
	if float64(hits)/float64(exits) < 0.9 {
		t.Errorf("loop exits predicted %d/%d", hits, exits)
	}
}

func TestConfidenceTracksAccuracy(t *testing.T) {
	// A random branch should mostly produce Low/Medium confidence; a
	// strongly biased one mostly High.
	p := NewTage(DefaultTageConfig())
	rng := uint64(42)
	lowish, n := 0, 3000
	for i := 0; i < n; i++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		actual := rng>>62&1 == 0
		pred := p.Predict(0x405000)
		p.SpecUpdate(0x405000, actual)
		if pred.Conf != High {
			lowish++
		}
		p.Train(0x405000, actual, pred)
	}
	randomNotHigh := float64(lowish) / float64(n)

	p2 := NewTage(DefaultTageConfig())
	high := 0
	for i := 0; i < n; i++ {
		pred := p2.Predict(0x406000)
		p2.SpecUpdate(0x406000, true)
		if pred.Conf == High {
			high++
		}
		p2.Train(0x406000, true, pred)
	}
	biasedHigh := float64(high) / float64(n)

	if biasedHigh < 0.8 {
		t.Errorf("always-taken branch only %.2f High confidence", biasedHigh)
	}
	if randomNotHigh < 0.4 {
		t.Errorf("random branch only %.2f non-High confidence", randomNotHigh)
	}
}

func TestUDPIncrements(t *testing.T) {
	if Low.UDPIncrement() != 2 || Medium.UDPIncrement() != 1 || High.UDPIncrement() != 0 {
		t.Error("UDP increments do not match the paper (2/1/0)")
	}
}

func TestSnapshotRestoreRoundtrip(t *testing.T) {
	p := NewTage(DefaultTageConfig())
	// Build some history.
	for i := 0; i < 100; i++ {
		pred := p.Predict(isa.Addr(0x400000 + i*4))
		p.SpecUpdate(isa.Addr(0x400000+i*4), i%3 == 0)
		_ = pred
	}
	snap := p.Snapshot()
	before := p.Predict(0x409000)

	// Pollute speculative history (wrong path).
	for i := 0; i < 50; i++ {
		p.SpecUpdate(isa.Addr(0x500000+i*4), i%2 == 0)
	}
	p.Restore(snap)
	after := p.Predict(0x409000)

	if before.Taken != after.Taken || before.Conf != after.Conf {
		t.Errorf("restore did not reproduce prediction: %+v vs %+v",
			before.Taken, after.Taken)
	}
}

// Property: Snapshot/Restore is an exact inverse for any wrong-path
// update sequence.
func TestSnapshotRestoreProperty(t *testing.T) {
	f := func(seedPath []bool, wrongPath []bool) bool {
		p := NewTage(DefaultTageConfig())
		for i, taken := range seedPath {
			p.SpecUpdate(isa.Addr(0x400000+i*4), taken)
		}
		snap := p.Snapshot()
		for i, taken := range wrongPath {
			p.SpecUpdate(isa.Addr(0x600000+i*4), taken)
		}
		p.Restore(snap)
		return p.Snapshot() == snap
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTageStorageBits(t *testing.T) {
	p := NewTage(DefaultTageConfig())
	bits := p.StorageBits()
	// A 64KB-class predictor: sanity-band the budget.
	if bits < 100_000 || bits > 2_000_000 {
		t.Errorf("storage %d bits implausible", bits)
	}
}

func TestTageConfigValidation(t *testing.T) {
	bad := []TageConfig{
		{TableBits: 10, BimodalBits: 10, HistLengths: nil, TagBits: 8},
		{TableBits: 10, BimodalBits: 10, HistLengths: []uint{4, 300}, TagBits: 8},
		{TableBits: 10, BimodalBits: 10, HistLengths: make([]uint, 20), TagBits: 8},
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %d accepted", i)
				}
			}()
			NewTage(cfg)
		}()
	}
}

func TestPredictorNames(t *testing.T) {
	for name, mk := range predictors() {
		if mk().Name() == "" {
			t.Errorf("%s has empty name", name)
		}
	}
}

func TestConfidenceString(t *testing.T) {
	for _, c := range []Confidence{Low, Medium, High, Confidence(9)} {
		if c.String() == "" {
			t.Errorf("empty string for %d", c)
		}
	}
}
