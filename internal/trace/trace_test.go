package trace

import (
	"bytes"
	"io"
	"testing"
	"testing/quick"

	"udpsim/internal/isa"
	"udpsim/internal/workload"
)

func tinyProfile() workload.Profile {
	p := workload.MustByName("postgres")
	p.Funcs = 30
	p.DispatchTargets = 20
	return p
}

// roundtrip writes recs as a trace of prog and reads them back,
// failing on any error or on a record count that differs.
func roundtrip(t testing.TB, prog *workload.Program, recs []Record) []Record {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter2(&buf, prog, 0, EncBinary)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader2(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var got []Record
	for {
		rec, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("read %d: %v", len(got), err)
		}
		got = append(got, rec)
	}
	if len(got) != len(recs) {
		t.Fatalf("wrote %d records, read %d", len(recs), len(got))
	}
	return got
}

// encoded is what a record decodes to: the encoding stores a zero
// target as the fall-through.
func encoded(rec Record) Record {
	if rec.Target == 0 {
		rec.Target = rec.PC + isa.InstrBytes
	}
	return rec
}

// Property: arbitrary record sequences survive the delta/varint record
// encoding bit-exactly.
func TestRecordRoundtripProperty(t *testing.T) {
	prog := workload.MustGenerate(tinyProfile())
	f := func(pcs []uint32, flags []bool) bool {
		var recs []Record
		for i, pc := range pcs {
			taken := i < len(flags) && flags[i]
			recs = append(recs, Record{
				PC:       isa.Addr(pc) &^ 3,
				Target:   isa.Addr(pc+8) &^ 3,
				DataAddr: isa.Addr(pc * 3),
				Taken:    taken,
			})
		}
		for i, got := range roundtrip(t, prog, recs) {
			if got != encoded(recs[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAnalyze(t *testing.T) {
	p := tinyProfile()
	const n = 20_000
	r, _ := NewReader2(bytes.NewReader(recordTiny(t, 0, n)))
	prog := workload.MustGenerate(p)
	s, err := Analyze(prog, r)
	if err != nil {
		t.Fatal(err)
	}
	if s.Instructions != n {
		t.Errorf("Instructions = %d", s.Instructions)
	}
	if s.Branches == 0 || s.Loads == 0 || s.Stores == 0 || s.Taken == 0 {
		t.Errorf("degenerate mix: %v", &s)
	}
	if s.UniqueLines == 0 || s.FootprintBytes() == 0 {
		t.Error("no footprint measured")
	}
	if s.TakenRatio() <= 0 || s.TakenRatio() > 0.5 {
		t.Errorf("taken ratio %v implausible", s.TakenRatio())
	}
}

func TestIntervalsAndSelect(t *testing.T) {
	r, _ := NewReader2(bytes.NewReader(recordTiny(t, 0, 100_000)))
	intervals, err := Intervals(r, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(intervals) != 10 {
		t.Fatalf("%d intervals", len(intervals))
	}
	for i, iv := range intervals {
		sum := 0.0
		for _, v := range iv.BBV {
			if v < 0 {
				t.Fatal("negative BBV component")
			}
			sum += v
		}
		if sum < 0.99 || sum > 1.01 {
			t.Errorf("interval %d BBV not normalized: %v", i, sum)
		}
	}

	points := Select(intervals, 3)
	if len(points) == 0 || len(points) > 3 {
		t.Fatalf("%d simpoints", len(points))
	}
	total := 0.0
	for _, pt := range points {
		total += pt.Weight
		if pt.Start%10_000 != 0 {
			t.Errorf("simpoint start %d not interval-aligned", pt.Start)
		}
	}
	if total < 0.99 || total > 1.01 {
		t.Errorf("weights sum to %v", total)
	}
	for i := 1; i < len(points); i++ {
		if points[i].Weight > points[i-1].Weight {
			t.Error("simpoints not ordered by weight")
		}
	}
}

func TestSelectEdgeCases(t *testing.T) {
	if Select(nil, 3) != nil {
		t.Error("empty selection")
	}
	iv := []Interval{{Index: 0}}
	pts := Select(iv, 5) // k > len
	if len(pts) != 1 || pts[0].Weight != 1 {
		t.Errorf("single-interval selection: %+v", pts)
	}
	pts = Select(iv, 0) // k <= 0
	if len(pts) != 1 {
		t.Errorf("k=0 selection: %+v", pts)
	}
}

func TestIntervalsRejectsZeroLength(t *testing.T) {
	r, _ := NewReader2(bytes.NewReader(recordTiny(t, 0, 10)))
	if _, err := Intervals(r, 0); err == nil {
		t.Error("zero interval length accepted")
	}
}

func TestFitRegion(t *testing.T) {
	for _, tc := range []struct {
		length, warmup, instrs uint64
		want                   uint64
		ok                     bool
	}{
		{length: 50_000, warmup: 1_000, instrs: 2_000, want: 2_000, ok: true},
		{length: 13_000, warmup: 1_000, instrs: 2_000, want: 2_000, ok: true},
		{length: 12_000, warmup: 1_000, instrs: 2_000, want: 1_000, ok: true}, // clamped
		{length: 50_000, warmup: 1_000, instrs: 0, want: 39_000, ok: true},    // whole trace
		{length: 11_000, warmup: 1_000, instrs: 2_000, ok: false},             // no room
		{length: 5_000, warmup: 1_000, instrs: 4_000, ok: false},
	} {
		got, err := FitRegion(tc.length, tc.warmup, tc.instrs)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("FitRegion(%d, %d, %d) = %d, %v; want %d (ok %v)",
				tc.length, tc.warmup, tc.instrs, got, err, tc.want, tc.ok)
		}
	}
}
