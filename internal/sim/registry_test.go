package sim

import (
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

// TestRegistryContents checks the in-tree mechanisms are all present
// with documentation, and that lookup resolves the empty alias.
func TestRegistryContents(t *testing.T) {
	want := []Mechanism{
		MechBaseline, MechNoPrefetch, MechPerfectICache,
		MechUFTQAUR, MechUFTQATR, MechUFTQATRAUR,
		MechUDP, MechUDPInfinite, MechEIP, MechUDPUFTQ,
	}
	got := Mechanisms()
	if len(got) != len(want) {
		t.Fatalf("Mechanisms() has %d entries, want %d: %v", len(got), len(want), got)
	}
	for _, m := range want {
		d, ok := LookupMechanism(m)
		if !ok {
			t.Errorf("mechanism %q not registered", m)
			continue
		}
		if d.Name != m {
			t.Errorf("descriptor for %q carries name %q", m, d.Name)
		}
		if d.Doc == "" {
			t.Errorf("mechanism %q has no doc line", m)
		}
		if d.Build == nil {
			t.Errorf("mechanism %q has nil Build", m)
		}
	}
	if d, ok := LookupMechanism(""); !ok || d.Name != MechBaseline {
		t.Error("LookupMechanism(\"\") did not resolve to baseline")
	}
	if _, ok := LookupMechanism("no-such-mech"); ok {
		t.Error("LookupMechanism accepted an unregistered name")
	}
	for _, m := range want {
		if !strings.Contains(MechanismNames(), string(m)) {
			t.Errorf("MechanismNames() omits %q: %s", m, MechanismNames())
		}
	}
}

// TestRegisterMechanismPanics pins the fail-at-startup contract for
// programming errors.
func TestRegisterMechanismPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("empty name", func() {
		RegisterMechanism(MechDescriptor{Name: "", Doc: "x", Build: func(Config) (Bindings, error) { return Bindings{}, nil }})
	})
	mustPanic("nil build", func() {
		RegisterMechanism(MechDescriptor{Name: "test-nil-build", Doc: "x"})
	})
	mustPanic("duplicate", func() {
		RegisterMechanism(MechDescriptor{Name: MechBaseline, Doc: "x", Build: func(Config) (Bindings, error) { return Bindings{}, nil }})
	})
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
			t.Errorf("error does not list registered mechanism %q: %v", m, err)
		}
	}
}

// TestTypedAccessors checks the Machine's typed mechanism views resolve
// through the binding for the mechanisms that expose them.
func TestTypedAccessors(t *testing.T) {
	cases := []struct {
		mech                       Mechanism
		wantUDP, wantUFTQ, wantEIP bool
	}{
		{MechBaseline, false, false, false},
		{MechUDP, true, false, false},
		{MechUFTQAUR, false, true, false},
		{MechEIP, false, false, true},
		{MechUDPUFTQ, true, true, false},
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
