package cache

import (
	"testing"

	"udpsim/internal/isa"
)

func TestMSHRAllocateLookup(t *testing.T) {
	f := NewMSHRFile(2)
	m := f.Allocate(ln(1), 10, 50, true, true)
	if m == nil {
		t.Fatal("allocation failed")
	}
	if got := f.Lookup(ln(1)); got != m {
		t.Error("lookup did not find allocated entry")
	}
	if f.Lookup(ln(2)) != nil {
		t.Error("lookup found phantom entry")
	}
	if !m.Prefetch || !m.OffPath || m.IssueCycle != 10 || m.ReadyCycle != 50 {
		t.Errorf("entry fields: %+v", m)
	}
	if f.Occupancy() != 1 || f.Capacity() != 2 || f.Full() {
		t.Errorf("occupancy accounting wrong")
	}
}

func TestMSHRFull(t *testing.T) {
	f := NewMSHRFile(1)
	if f.Allocate(ln(1), 0, 10, false, false) == nil {
		t.Fatal("first allocation failed")
	}
	if f.Allocate(ln(2), 0, 10, false, false) != nil {
		t.Fatal("allocation beyond capacity succeeded")
	}
	if f.Stats.AllocFailures != 1 {
		t.Errorf("AllocFailures = %d", f.Stats.AllocFailures)
	}
	if !f.Full() {
		t.Error("file not reported full")
	}
}

func TestMSHRMergeDemand(t *testing.T) {
	f := NewMSHRFile(4)
	m := f.Allocate(ln(1), 0, 40, true, false)
	ready := f.MergeDemand(m)
	if ready != 40 {
		t.Errorf("merge returned ready %d", ready)
	}
	if !m.DemandMerged {
		t.Error("DemandMerged not set")
	}
	if f.Stats.DemandMerges != 1 {
		t.Errorf("DemandMerges = %d", f.Stats.DemandMerges)
	}
	// Second merge must not double count.
	f.MergeDemand(m)
	if f.Stats.DemandMerges != 1 {
		t.Errorf("double-counted merge: %d", f.Stats.DemandMerges)
	}
}

func TestMSHRCompleted(t *testing.T) {
	f := NewMSHRFile(4)
	f.Allocate(ln(1), 0, 10, true, false)
	f.Allocate(ln(2), 0, 20, false, false)

	var done []isa.Addr
	f.Completed(15, func(m MSHR) { done = append(done, m.LineAddr) })
	if len(done) != 1 || done[0] != ln(1) {
		t.Fatalf("completed at 15: %v", done)
	}
	if f.Occupancy() != 1 {
		t.Errorf("occupancy %d after completion", f.Occupancy())
	}
	done = nil
	f.Completed(25, func(m MSHR) { done = append(done, m.LineAddr) })
	if len(done) != 1 || done[0] != ln(2) {
		t.Fatalf("completed at 25: %v", done)
	}
	if f.Stats.Completions != 2 {
		t.Errorf("Completions = %d", f.Stats.Completions)
	}
}

func TestMSHRFlush(t *testing.T) {
	f := NewMSHRFile(4)
	f.Allocate(ln(1), 0, 10, false, false)
	f.Flush()
	if f.Occupancy() != 0 {
		t.Error("flush left entries")
	}
}

func TestMSHRPanicsOnZeroSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	NewMSHRFile(0)
}

func TestMSHRVersion(t *testing.T) {
	f := NewMSHRFile(2)
	v := f.Version()
	changed := func(op string) {
		t.Helper()
		if f.Version() == v {
			t.Errorf("%s did not change the version", op)
		}
		v = f.Version()
	}
	f.Allocate(ln(1), 0, 10, false, false)
	changed("Allocate")
	m := f.Allocate(ln(2), 0, 20, true, false)
	changed("Allocate")
	f.Allocate(ln(3), 0, 20, false, false) // full: fails
	f.Lookup(ln(1))
	f.MergeDemand(m)
	f.Completed(5, func(MSHR) { t.Error("nothing is ready at cycle 5") })
	if f.Version() != v {
		t.Error("a failed Allocate, Lookup, MergeDemand or empty sweep changed the version")
	}
	f.Completed(10, func(MSHR) {})
	changed("Completed")
	f.Flush()
	changed("Flush")
	if f.Lookup(ln(2)) != nil || f.Occupancy() != 0 {
		t.Error("Flush left an entry in flight")
	}
}
