package workload

import (
	"strings"
	"testing"
)

func tinySourceProfile() Profile {
	p := MustByName("postgres")
	p.Funcs = 30
	p.DispatchTargets = 20
	return p
}

func TestSyntheticSource(t *testing.T) {
	p := tinySourceProfile()
	s := NewSyntheticSource(p)
	if s.Name() != p.Name {
		t.Errorf("Name = %q", s.Name())
	}
	if s.Key() != "profile:"+p.Key() {
		t.Errorf("Key = %q", s.Key())
	}
	img1, err := s.Image()
	if err != nil {
		t.Fatal(err)
	}
	img2, _ := s.Image()
	if img1 != img2 {
		t.Error("Image not memoized")
	}
	st, err := s.Stream(3)
	if err != nil {
		t.Fatal(err)
	}
	live := NewExecutor(MustGenerate(p), 3)
	for i := 0; i < 5_000; i++ {
		a, b := st.Next(), live.Next()
		if a.PC() != b.PC() || a.Taken != b.Taken || a.Target != b.Target {
			t.Fatalf("stream mismatch at %d", i)
		}
	}
}

func TestSourceRegistry(t *testing.T) {
	s := NewSyntheticSource(tinySourceProfile())
	RegisterSource(s)
	if got, ok := SourceByKey(s.Key()); !ok || got != Source(s) {
		t.Errorf("SourceByKey(%q) = %v, %t", s.Key(), got, ok)
	}
	if got, ok := SourceByName(s.Name()); !ok || got != Source(s) {
		t.Errorf("SourceByName(%q) = %v, %t", s.Name(), got, ok)
	}
	if _, ok := SourceByKey("trace:definitely-not-registered"); ok {
		t.Error("unregistered key resolved")
	}
	if MustSourceByKey(s.Key()) != Source(s) {
		t.Error("MustSourceByKey mismatch")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustSourceByKey of an unknown key did not panic")
		}
	}()
	MustSourceByKey("trace:definitely-not-registered")
}

func TestProfileKeyDistinguishes(t *testing.T) {
	p := tinySourceProfile()
	if p.Key() != p.Key() {
		t.Fatal("Key not deterministic")
	}
	if !strings.Contains(p.Key(), "name="+p.Name) {
		t.Errorf("Key %q missing the profile name", p.Key())
	}
	q := p
	q.Seed++
	if p.Key() == q.Key() {
		t.Error("seed mutation aliases the profile key")
	}
	r := p
	r.WSwitch += 0.01
	if p.Key() == r.Key() {
		t.Error("mix mutation aliases the profile key")
	}
}

func TestNewProgramFromImageRejectsSparseCode(t *testing.T) {
	p := tinySourceProfile()
	code := MustGenerate(p).StaticCode()
	sparse := append(code[:0:0], code...)
	sparse[3].PC += 4 // break density
	if _, err := NewProgramFromImage(p, ImageBase, sparse); err == nil {
		t.Error("sparse code accepted")
	}
	if _, err := NewProgramFromImage(p, ImageBase, code); err != nil {
		t.Errorf("valid code rejected: %v", err)
	}
}
