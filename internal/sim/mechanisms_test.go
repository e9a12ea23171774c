package sim

import (
	"slices"
	"strings"
	"testing"

	"udpsim/internal/workload"
)

// TestConfigKeyNormalizesEmptyMechanism pins the ""/baseline aliasing
// fix: the two spellings always built identical machines, so they must
// share one result-cache key. A regression here means the experiment
// cache simulates the same cell twice.
func TestConfigKeyNormalizesEmptyMechanism(t *testing.T) {
	prof := workload.MustByName("mysql")
	empty := NewConfig(prof, "")
	base := NewConfig(prof, MechBaseline)
	if empty.Mechanism != MechBaseline {
		t.Errorf("NewConfig(%q) kept mechanism %q, want %q", "", empty.Mechanism, MechBaseline)
	}
	if ConfigKey(empty) != ConfigKey(base) {
		t.Errorf("ConfigKey(\"\") != ConfigKey(\"baseline\"):\n  %q\n  %q",
			ConfigKey(empty), ConfigKey(base))
	}

	// Even a hand-rolled Config that bypasses NewConfig must key
	// identically: ConfigKey normalizes at serialization time too.
	raw := base
	raw.Mechanism = ""
	if ConfigKey(raw) != ConfigKey(base) {
		t.Error("ConfigKey does not normalize a hand-rolled empty mechanism")
	}
}

func TestNormalizeMechanism(t *testing.T) {
	if got := NormalizeMechanism(""); got != MechBaseline {
		t.Errorf("NormalizeMechanism(\"\") = %q, want %q", got, MechBaseline)
	}
	if got := NormalizeMechanism(MechUDP); got != MechUDP {
		t.Errorf("NormalizeMechanism(udp) = %q, want udp", got)
	}
}

// TestRegistryContents pins the mechanism table: its order (the
// presentation order of every listing), a doc line per row, and
// ValidMechanism on the empty alias, a name and an unknown name.
func TestRegistryContents(t *testing.T) {
	want := []Mechanism{
		MechBaseline, MechNoPrefetch, MechPerfectICache,
		MechUFTQAUR, MechUFTQATR, MechUFTQATRAUR,
		MechUDP, MechUDPInfinite, MechEIP,
	}
	docs := MechanismDocs()
	if len(docs) != len(want) {
		t.Fatalf("MechanismDocs() has %d rows, want %d: %v", len(docs), len(want), docs)
	}
	for i, d := range docs {
		if d.Name != want[i] {
			t.Errorf("row %d is %q, want %q", i, d.Name, want[i])
		}
		if d.Doc == "" {
			t.Errorf("mechanism %q has no doc line", d.Name)
		}
		if !strings.Contains(MechanismNames(), string(d.Name)) {
			t.Errorf("MechanismNames() omits %q: %s", d.Name, MechanismNames())
		}
	}
	if got := Mechanisms(); !slices.Equal(got, want) {
		t.Errorf("Mechanisms() = %v, want %v", got, want)
	}
	if ValidMechanism("") {
		t.Error(`ValidMechanism("") accepted the empty alias`)
	}
	if !ValidMechanism(MechUDP) {
		t.Error("ValidMechanism rejected udp")
	}
	if ValidMechanism("no-such-mech") {
		t.Error("ValidMechanism accepted an unknown name")
	}
}

// TestUnknownMechanismErrorListsRegistered checks the machine builder's
// error self-documents the valid names.
func TestUnknownMechanismErrorListsRegistered(t *testing.T) {
	cfg := testConfig("frobnicator")
	_, err := NewMachine(cfg)
	if err == nil {
		t.Fatal("unknown mechanism accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, "frobnicator") {
		t.Errorf("error does not name the offender: %v", err)
	}
	for _, m := range []Mechanism{MechBaseline, MechUDP, MechEIP} {
		if !strings.Contains(msg, string(m)) {
			t.Errorf("error does not list mechanism %q: %v", m, err)
		}
	}
}

// TestTypedAccessors checks the Machine's typed mechanism views are set
// exactly for the mechanisms that build them.
func TestTypedAccessors(t *testing.T) {
	cases := []struct {
		mech                       Mechanism
		wantUDP, wantUFTQ, wantEIP bool
	}{
		{MechBaseline, false, false, false},
		{MechUDP, true, false, false},
		{MechUFTQAUR, false, true, false},
		{MechEIP, false, false, true},
	}
	for _, c := range cases {
		m, err := NewMachine(testConfig(c.mech))
		if err != nil {
			t.Fatalf("%s: %v", c.mech, err)
		}
		if got := m.UDP() != nil; got != c.wantUDP {
			t.Errorf("%s: UDP() non-nil = %v, want %v", c.mech, got, c.wantUDP)
		}
		if got := m.UFTQ() != nil; got != c.wantUFTQ {
			t.Errorf("%s: UFTQ() non-nil = %v, want %v", c.mech, got, c.wantUFTQ)
		}
		if got := m.EIP() != nil; got != c.wantEIP {
			t.Errorf("%s: EIP() non-nil = %v, want %v", c.mech, got, c.wantEIP)
		}
	}
}
