// Backend behaviour is exercised through a fully wired machine (the
// backend's contract is inseparable from the frontend's recovery
// protocol), so these tests live in an external package and drive
// internal/sim.
package backend_test

import (
	"testing"

	"udpsim/internal/frontend"
	"udpsim/internal/isa"
	"udpsim/internal/sim"
	"udpsim/internal/workload"
)

func machine(t *testing.T, mutate func(*sim.Config)) *sim.Machine {
	t.Helper()
	p := workload.MustByName("mysql")
	p.Funcs = 60
	p.DispatchTargets = 40
	cfg := sim.NewConfig(p, sim.MechBaseline)
	cfg.MaxInstructions = 60_000
	cfg.WarmupInstructions = 0
	if mutate != nil {
		mutate(&cfg)
	}
	m, err := sim.NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestRetirementIsProgramOrder(t *testing.T) {
	m := machine(t, nil)
	var lastSeq uint64
	m.BE.RetireObserver = func(fi *frontend.FrontInstr) {
		if fi.Oracle.Seq != lastSeq+1 {
			t.Fatalf("retire sequence jumped %d → %d", lastSeq, fi.Oracle.Seq)
		}
		lastSeq = fi.Oracle.Seq
	}
	m.RunInstructions(60_000)
}

func TestIPCBoundedByWidth(t *testing.T) {
	m := machine(t, func(c *sim.Config) { c.Width = 4 })
	m.RunInstructions(60_000)
	r := m.Snapshot()
	if r.IPC > 4 {
		t.Errorf("IPC %v exceeds retire width", r.IPC)
	}
}

func TestNarrowBackendSlower(t *testing.T) {
	wide := machine(t, nil)
	wide.RunInstructions(60_000)
	narrow := machine(t, func(c *sim.Config) { c.Width = 1 })
	narrow.RunInstructions(60_000)
	w, n := wide.Snapshot(), narrow.Snapshot()
	if n.IPC >= w.IPC {
		t.Errorf("1-wide (%.3f) not slower than 6-wide (%.3f)", n.IPC, w.IPC)
	}
	if n.IPC > 1 {
		t.Errorf("1-wide IPC %v above 1", n.IPC)
	}
}

func TestTinyROBThrottles(t *testing.T) {
	big := machine(t, nil)
	big.RunInstructions(60_000)
	small := machine(t, func(c *sim.Config) { c.ROBSize = 16 })
	small.RunInstructions(60_000)
	b, s := big.Snapshot(), small.Snapshot()
	if s.IPC >= b.IPC {
		t.Errorf("16-entry ROB (%.3f) not slower than 352 (%.3f)", s.IPC, b.IPC)
	}
	if s.BE.ROBFullCycles == 0 {
		t.Error("tiny ROB never filled")
	}
}

func TestRecoveriesFlushWrongPath(t *testing.T) {
	m := machine(t, nil)
	m.RunInstructions(60_000)
	r := m.Snapshot()
	if r.BE.Recoveries == 0 {
		t.Fatal("no recoveries on a branchy workload")
	}
	if r.BE.Recoveries != r.FE.Recoveries {
		t.Errorf("backend recoveries %d != frontend %d", r.BE.Recoveries, r.FE.Recoveries)
	}
	if r.BE.Flushed == 0 {
		t.Error("recoveries flushed nothing")
	}
}

func TestWrongPathInstructionsNeverRetire(t *testing.T) {
	m := machine(t, nil)
	m.BE.RetireObserver = func(fi *frontend.FrontInstr) {
		if !fi.OnPath {
			t.Fatal("wrong-path instruction retired")
		}
	}
	m.RunInstructions(60_000)
}

func TestSlowMemoryLowersIPC(t *testing.T) {
	fast := machine(t, nil)
	fast.RunInstructions(60_000)
	slow := machine(t, func(c *sim.Config) {
		c.DRAMLatency = 600
		c.L2Latency = 60
		c.LLCLatency = 150
	})
	slow.RunInstructions(60_000)
	if slow.Snapshot().IPC >= fast.Snapshot().IPC {
		t.Error("slower memory did not lower IPC")
	}
}

func TestLoadsAccessDataHierarchy(t *testing.T) {
	m := machine(t, nil)
	m.RunInstructions(60_000)
	if m.Hier.Stats.DataAccesses == 0 {
		t.Error("no data accesses reached the hierarchy")
	}
	if m.Hier.Stats.DataL1Hits == 0 {
		t.Error("no L1D hits — data locality model broken")
	}
	_ = isa.Addr(0)
}

// TestNoROBAliasingUnderFlushes pins the instruction-pool ownership
// discipline and the scheduler's bookkeeping, checking
// Backend.CheckInvariants every cycle. No decoded instruction may reuse
// the storage of one still live in the ROB (a double pool release would
// do exactly that after a recovery flush); the mysql run uses a
// mechanism and MSHR pressure that maximize flush traffic.
//
// On xgboost, loads back up behind a full L1D MSHR file, so the issue
// memo replays long runs of retries, and they complete far ahead in the
// completion wheel while recoveries flush issued work out of it.
func TestNoROBAliasingUnderFlushes(t *testing.T) {
	m := machine(t, func(cfg *sim.Config) {
		cfg.Mechanism = sim.MechUDP
		cfg.L2MSHRs = 4
		cfg.LLCMSHRs = 4
	})
	for m.BE.Stats.Retired < 60_000 {
		m.Step()
		if err := m.BE.CheckInvariants(m.Cycle()); err != nil {
			t.Fatalf("mysql cycle %d: %v", m.Cycle(), err)
		}
	}
	if m.BE.Stats.Recoveries == 0 {
		t.Error("no recoveries — the aliasing check never saw a flush")
	}

	cfg := sim.NewConfig(workload.MustByName("xgboost"), sim.MechUDP)
	cfg.WarmupInstructions = 0
	x, err := sim.NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for x.BE.Stats.Retired < 60_000 {
		x.Step()
		if err := x.BE.CheckInvariants(x.Cycle()); err != nil {
			t.Fatalf("xgboost cycle %d: %v", x.Cycle(), err)
		}
	}
	be := x.BE.Stats
	if be.Recoveries == 0 || be.Flushed == 0 {
		t.Errorf("xgboost: %d recoveries flushed %d instructions, want both > 0", be.Recoveries, be.Flushed)
	}
	if be.MemRetries == 0 || be.MemRetries != x.Hier.Stats.L1D.Retries {
		t.Errorf("xgboost: BE.MemRetries %d, Mem.L1D.Retries %d: want equal and > 0", be.MemRetries, x.Hier.Stats.L1D.Retries)
	}
}
