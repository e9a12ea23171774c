package sim

import (
	"testing"

	"udpsim/internal/frontend"
	"udpsim/internal/workload"
)

// TestRetirementFollowsOracle is the simulator's strongest correctness
// check: every retired instruction must be the next instruction of the
// architectural (oracle) stream, in order, with no gaps and no
// duplicates — across mispredictions, BTB misses, post-fetch
// corrections, and recoveries.
func TestRetirementFollowsOracle(t *testing.T) {
	for _, mech := range []Mechanism{MechBaseline, MechUDP, MechUFTQATRAUR, MechEIP, MechPerfectICache} {
		cfg := testConfig(mech)
		m, err := NewMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Reference oracle: an identical executor.
		ref := workload.NewExecutor(m.Program(), cfg.SeedSalt)
		checked := 0
		m.BE.RetireObserver = func(fi *frontend.FrontInstr) {
			want := ref.Next()
			if fi.Static.PC() != want.PC() || fi.Oracle.Taken != want.Taken || fi.Oracle.Target != want.Target {
				t.Fatalf("%s: retired instr %d at %v (taken %v → %v) diverges from oracle %v (taken %v → %v)",
					mech, checked, fi.Static.PC(), fi.Oracle.Taken, fi.Oracle.Target,
					want.PC(), want.Taken, want.Target)
			}
			checked++
		}
		m.RunInstructions(50_000)
		if checked < 50_000 {
			t.Errorf("%s: observer saw only %d retirements", mech, checked)
		}
	}
}

func TestDeterminism(t *testing.T) {
	cfg := testConfig(MechUDP)
	a, err := RunOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.IPC != b.IPC || a.IcacheMisses != b.IcacheMisses ||
		a.PrefetchesEmitted != b.PrefetchesEmitted || a.Recoveries != b.Recoveries {
		t.Errorf("non-deterministic simulation:\n%+v\n%+v", a, b)
	}
}

func TestAllMechanismsRun(t *testing.T) {
	for _, mech := range Mechanisms() {
		r, err := RunOne(testConfig(mech))
		if err != nil {
			t.Fatalf("%s: %v", mech, err)
		}
		if r.Instructions < 60_000 {
			t.Errorf("%s retired %d", mech, r.Instructions)
		}
		if r.IPC <= 0 || r.IPC > float64(6) {
			t.Errorf("%s IPC %v out of range", mech, r.IPC)
		}
	}
}

func TestUnknownMechanismRejected(t *testing.T) {
	cfg := testConfig("warp-drive")
	if _, err := NewMachine(cfg); err == nil {
		t.Error("unknown mechanism accepted")
	}
}

// TestMechanismOrdering: a perfect icache can only help, disabling the
// prefetcher can only hurt.
func TestMechanismOrdering(t *testing.T) {
	base, err := RunOne(testConfig(MechBaseline))
	if err != nil {
		t.Fatal(err)
	}
	perfect, err := RunOne(testConfig(MechPerfectICache))
	if err != nil {
		t.Fatal(err)
	}
	nopf, err := RunOne(testConfig(MechNoPrefetch))
	if err != nil {
		t.Fatal(err)
	}
	if perfect.IPC < base.IPC*0.99 {
		t.Errorf("perfect icache (%.3f) below baseline (%.3f)", perfect.IPC, base.IPC)
	}
	if nopf.IPC > base.IPC*1.01 {
		t.Errorf("no-prefetch (%.3f) above baseline (%.3f)", nopf.IPC, base.IPC)
	}
	if perfect.IcacheMPKI != 0 {
		t.Errorf("perfect icache has MPKI %v", perfect.IcacheMPKI)
	}
}

func TestFTQDepthRespected(t *testing.T) {
	cfg := testConfig(MechBaseline)
	cfg.FTQDepth = 16
	r, err := RunOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.FinalFTQDepth != 16 {
		t.Errorf("final depth %d", r.FinalFTQDepth)
	}
	if r.MeanFTQOcc > 16 {
		t.Errorf("mean occupancy %v exceeds depth", r.MeanFTQOcc)
	}
}

func TestUFTQAdjustsDepth(t *testing.T) {
	cfg := testConfig(MechUFTQATRAUR)
	cfg.MaxInstructions = 300_000
	// The tiny test workload mostly hits the icache; shrink the
	// measurement window so prefetch outcomes complete several windows.
	cfg.UFTQ.Window = 50
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Run()
	if m.UFTQ().Windows == 0 {
		t.Error("UFTQ never completed a measurement window")
	}
}

func TestUDPStateAfterRun(t *testing.T) {
	cfg := testConfig(MechUDP)
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := m.Run()
	if m.UDP().StorageBytes() == 0 || m.UDP().StorageBytes() > 16*1024 {
		t.Errorf("UDP storage %d outside budget sanity band", m.UDP().StorageBytes())
	}
	if r.UDPStorage != m.UDP().StorageBytes() {
		t.Error("result does not carry UDP storage")
	}
}

func TestStatsConsistency(t *testing.T) {
	cfg := testConfig(MechBaseline)
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := m.Run()
	fe := r.FE
	if fe.PrefetchesEmitted != fe.PrefetchesOnPath+fe.PrefetchesOffPath {
		t.Errorf("prefetch path attribution: %d != %d + %d",
			fe.PrefetchesEmitted, fe.PrefetchesOnPath, fe.PrefetchesOffPath)
	}
	if fe.PrefetchUsefulOff > fe.PrefetchUseful || fe.PrefetchUselessOff > fe.PrefetchUseless {
		t.Error("off-path counts exceed totals")
	}
	if r.BE.Flushed != r.BE.WrongPathExecuted {
		// Every wrong-path instruction that entered the ROB must be
		// squashed eventually. The in-flight window skews the balance in
		// both directions by up to one ROB: instructions still in flight
		// at the end of the run were counted but never flushed, and
		// instructions in flight across the warmup ResetStats are
		// flushed after their entry count was wiped.
		diff := int64(r.BE.WrongPathExecuted) - int64(r.BE.Flushed)
		if diff < -int64(cfg.ROBSize) || diff > int64(cfg.ROBSize) {
			t.Errorf("flushed %d vs wrong-path %d", r.BE.Flushed, r.BE.WrongPathExecuted)
		}
	}
	if r.BE.FlushedOnPath != 0 {
		t.Errorf("%d on-path instructions were squashed", r.BE.FlushedOnPath)
	}
	if r.Cycles == 0 || r.Instructions == 0 {
		t.Error("empty run")
	}
}

func TestSimpointsAggregate(t *testing.T) {
	cfg := testConfig(MechBaseline)
	results, agg, err := RunSimpoints(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("%d results", len(results))
	}
	var instrs uint64
	for i, r := range results {
		instrs += r.Instructions
		for j := i + 1; j < len(results); j++ {
			if r.Cycles == results[j].Cycles && r.IcacheMisses == results[j].IcacheMisses {
				t.Errorf("simpoints %d and %d identical — salts not applied", i, j)
			}
		}
	}
	if agg.Instructions != instrs {
		t.Errorf("aggregate instructions %d, want %d", agg.Instructions, instrs)
	}
	lo, hi := results[0].IPC, results[0].IPC
	for _, r := range results {
		if r.IPC < lo {
			lo = r.IPC
		}
		if r.IPC > hi {
			hi = r.IPC
		}
	}
	if agg.IPC < lo || agg.IPC > hi {
		t.Errorf("aggregate IPC %v outside [%v, %v]", agg.IPC, lo, hi)
	}
}

func TestGeomean(t *testing.T) {
	if g := Geomean(nil); g != 0 {
		t.Errorf("empty geomean %v", g)
	}
	if g := Geomean([]float64{0.1, 0.1}); g < 0.0999 || g > 0.1001 {
		t.Errorf("geomean of equal values %v", g)
	}
	g := Geomean([]float64{0.0, 0.21})
	if g < 0.09 || g > 0.11 {
		t.Errorf("geomean %v, want ~0.1", g)
	}
}

func TestWarmupExcludedFromStats(t *testing.T) {
	cfg := testConfig(MechBaseline)
	cfg.MaxInstructions = 50_000
	cfg.WarmupInstructions = 50_000
	r, err := RunOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The final Step may retire up to Width instructions at once, so the
	// measured region can overshoot by at most one retire group; warmup
	// instructions would show up as a ~50k excess.
	if r.Instructions < 50_000 || r.Instructions >= 50_000+uint64(cfg.Width) {
		t.Errorf("instructions %d include warmup", r.Instructions)
	}
}

func TestSharedImageCaches(t *testing.T) {
	p := testProfile()
	a, err := SharedImage(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SharedImage(p)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("image not shared")
	}
	p2 := p
	p2.Seed++
	c, err := SharedImage(p2)
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Error("distinct profiles share an image")
	}
}

func TestICache40KGeometry(t *testing.T) {
	cfg := testConfig(MechBaseline)
	cfg.ICacheBytes = 40 * 1024
	cfg.ICacheWays = 10
	if _, err := RunOne(cfg); err != nil {
		t.Fatalf("40K icache config: %v", err)
	}
}

func TestBTBSizeSweepRuns(t *testing.T) {
	for _, n := range []int{1024, 16384} {
		cfg := testConfig(MechBaseline)
		cfg.BTBEntries = n
		if _, err := RunOne(cfg); err != nil {
			t.Fatalf("BTB %d: %v", n, err)
		}
	}
}

func TestResultString(t *testing.T) {
	r := Result{Workload: "x", Mechanism: MechUDP, IPC: 1}
	if r.String() == "" {
		t.Error("empty result string")
	}
	if r.Speedup(Result{}) != 0 {
		t.Error("speedup over zero base should be 0")
	}
}

func TestPredecodeBTBFill(t *testing.T) {
	plain := testConfig(MechBaseline)
	filled := plain
	filled.PredecodeBTBFill = true
	a, err := RunOne(plain)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunOne(filled)
	if err != nil {
		t.Fatal(err)
	}
	if b.FE.PredecodeBTBFills == 0 {
		t.Fatal("predecode fill never fired")
	}
	if a.FE.PredecodeBTBFills != 0 {
		t.Fatal("predecode fill fired while disabled")
	}
	// Eliminating BTB misses must reduce BTB-miss divergences.
	if b.FE.DivergencesBTBMiss >= a.FE.DivergencesBTBMiss {
		t.Errorf("BTB-miss divergences not reduced: %d vs %d",
			b.FE.DivergencesBTBMiss, a.FE.DivergencesBTBMiss)
	}
}
