package workload

import (
	"testing"

	"udpsim/internal/isa"
)

// TestTapeMatchesExecutor proves a tape replays the executor's stream
// bit-for-bit to several interleaved readers, including a straggler
// that stays a full rewind window behind the leader.
func TestTapeMatchesExecutor(t *testing.T) {
	prof := MustByName("mysql")
	prof.Funcs = 40
	prof.DispatchTargets = 30
	prog, err := Generate(prof)
	if err != nil {
		t.Fatal(err)
	}
	const n = 3 * tapeChunkSize
	ref := NewExecutor(prog, 42)
	want := make([]DynRecord, n)
	for i := range want {
		d := ref.Next()
		want[i] = DynRecord{Seq: d.Seq, PC: d.Static.PC(), Target: d.Target, Taken: d.Taken, Data: d.DataAddr}
	}

	tape := NewTape(prog, 42)
	lead := tape.Reader()
	lag := tape.Reader()
	lagPos := uint64(0)
	for i := uint64(0); i < n; i++ {
		d := lead.At(i)
		if got := (DynRecord{Seq: d.Seq, PC: d.Static.PC(), Target: d.Target, Taken: d.Taken, Data: d.DataAddr}); got != want[i] {
			t.Fatalf("lead record %d: got %+v want %+v", i, got, want[i])
		}
		// The lagging reader trails by the full rewind window.
		if i >= tapeRewindWindow {
			d := lag.At(lagPos)
			if d.Seq != want[lagPos].Seq || d.Target != want[lagPos].Target {
				t.Fatalf("lag record %d mismatch", lagPos)
			}
			lagPos++
		}
	}
	// Re-read within the window (a recovery rewind).
	d := lead.At(n - tapeRewindWindow)
	if d.Seq != want[n-tapeRewindWindow].Seq {
		t.Fatal("rewind within window returned wrong record")
	}
}

// DynRecord flattens a DynInstr for comparison (Static is a pointer).
type DynRecord struct {
	Seq    uint64
	PC     isa.Addr
	Target isa.Addr
	Taken  bool
	Data   isa.Addr
}

// TestTapeTrimsBehindReaders asserts released history: once every
// reader has moved far past a chunk, it is dropped, so resident memory
// tracks the reader spread rather than the run length.
func TestTapeTrimsBehindReaders(t *testing.T) {
	prof := MustByName("mysql")
	prof.Funcs = 40
	prof.DispatchTargets = 30
	prog, err := Generate(prof)
	if err != nil {
		t.Fatal(err)
	}
	tape := NewTape(prog, 1)
	a := tape.Reader()
	b := tape.Reader()
	const chunks = 16
	for i := uint64(0); i < chunks*tapeChunkSize; i += tapeChunkSize / 2 {
		a.At(i)
		b.At(i)
	}
	if live := tape.LiveChunks(); live > 3 {
		t.Errorf("tape retains %d chunks with close readers, want <= 3", live)
	}
	// A closed reader stops holding history back.
	b.Close()
	a.At((chunks + 8) * tapeChunkSize)
	if live := tape.LiveChunks(); live > 3 {
		t.Errorf("tape retains %d chunks after Close, want <= 3", live)
	}
}

// TestTapeRewindBeyondWindowPanics pins the trimming contract: reading
// below high-water minus the rewind window is a modelling bug.
func TestTapeRewindBeyondWindowPanics(t *testing.T) {
	prof := MustByName("mysql")
	prof.Funcs = 40
	prof.DispatchTargets = 30
	prog, err := Generate(prof)
	if err != nil {
		t.Fatal(err)
	}
	tape := NewTape(prog, 1)
	r := tape.Reader()
	r.At(4 * tapeChunkSize)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on rewind beyond window")
		}
	}()
	r.At(0)
}
