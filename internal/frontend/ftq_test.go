package frontend

import (
	"testing"
	"testing/quick"
)

func blockSeq(seq uint64) *FetchBlock { return &FetchBlock{Seq: seq} }

func TestFTQPushPop(t *testing.T) {
	q := NewFTQ(8, 4)
	if q.Pop() != nil || q.Peek() != nil {
		t.Error("empty queue returned a block")
	}
	for i := uint64(1); i <= 4; i++ {
		q.Push(blockSeq(i))
	}
	if !q.Full() || q.Len() != 4 {
		t.Errorf("len %d full %v", q.Len(), q.Full())
	}
	if q.Peek().Seq != 1 {
		t.Errorf("peek %d", q.Peek().Seq)
	}
	for i := uint64(1); i <= 4; i++ {
		fb := q.Pop()
		if fb.Seq != i {
			t.Fatalf("pop %d, want %d", fb.Seq, i)
		}
	}
}

func TestFTQPushPanicsWhenFull(t *testing.T) {
	q := NewFTQ(4, 2)
	q.Push(blockSeq(1))
	q.Push(blockSeq(2))
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	q.Push(blockSeq(3))
}

func TestFTQScanPointer(t *testing.T) {
	q := NewFTQ(8, 8)
	q.Push(blockSeq(1))
	q.Push(blockSeq(2))
	if fb := q.NextUnscanned(); fb.Seq != 1 {
		t.Fatalf("scan got %d", fb.Seq)
	}
	if fb := q.NextUnscanned(); fb.Seq != 2 {
		t.Fatalf("scan got %d", fb.Seq)
	}
	if q.NextUnscanned() != nil {
		t.Error("scan beyond content")
	}
	// New push becomes scannable.
	q.Push(blockSeq(3))
	if fb := q.NextUnscanned(); fb == nil || fb.Seq != 3 {
		t.Error("new block not scannable")
	}
	// Popping a scanned block keeps the pointer consistent.
	q.Pop()
	q.Push(blockSeq(4))
	if fb := q.NextUnscanned(); fb == nil || fb.Seq != 4 {
		t.Error("scan pointer derailed after pop")
	}
}

func TestFTQFlushYoungerThan(t *testing.T) {
	q := NewFTQ(8, 8)
	for i := uint64(1); i <= 5; i++ {
		q.Push(blockSeq(i))
	}
	q.FlushYoungerThan(3)
	if q.Len() != 3 {
		t.Fatalf("len %d after partial flush", q.Len())
	}
	for i := uint64(1); i <= 3; i++ {
		if fb := q.Pop(); fb.Seq != i {
			t.Fatalf("pop %d, want %d", fb.Seq, i)
		}
	}
}

func TestFTQSetCap(t *testing.T) {
	q := NewFTQ(16, 8)
	for i := uint64(1); i <= 8; i++ {
		q.Push(blockSeq(i))
	}
	q.SetCap(4)
	if !q.Full() {
		t.Error("queue above capacity not full")
	}
	// Draining below the new cap reopens it.
	for i := 0; i < 5; i++ {
		q.Pop()
	}
	if q.Full() {
		t.Error("queue below capacity still full")
	}
	q.SetCap(99)
	if q.Cap() != 16 {
		t.Errorf("cap %d not clamped to physical %d", q.Cap(), q.PhysMax())
	}
	q.SetCap(0)
	if q.Cap() != 1 {
		t.Errorf("cap %d not clamped to 1", q.Cap())
	}
}

func TestFTQOccupancyStats(t *testing.T) {
	q := NewFTQ(8, 8)
	q.SampleOccupancy() // 0
	q.Push(blockSeq(1))
	q.Push(blockSeq(2))
	q.SampleOccupancy() // 2
	if got := q.MeanOccupancy(); got != 1 {
		t.Errorf("mean occupancy %v, want 1", got)
	}
}

// Property: any interleaving of pushes and pops preserves FIFO order
// and the length invariant.
func TestFTQFIFOProperty(t *testing.T) {
	f := func(ops []bool) bool {
		q := NewFTQ(16, 16)
		var next, expect uint64 = 1, 1
		n := 0
		for _, push := range ops {
			if push && !q.Full() {
				q.Push(blockSeq(next))
				next++
				n++
			} else if !push && q.Len() > 0 {
				fb := q.Pop()
				if fb.Seq != expect {
					return false
				}
				expect++
				n--
			}
			if q.Len() != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNewFTQPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	NewFTQ(0, 0)
}

func TestInstrQueue(t *testing.T) {
	var q instrQueue
	q.init(4)
	if !q.empty() {
		t.Error("fresh queue not empty")
	}
	for i := 0; i < 4; i++ {
		q.push(&FrontInstr{FetchSeq: uint64(i)})
	}
	if !q.full() {
		t.Error("queue not full")
	}
	for i := 0; i < 4; i++ {
		fi := q.pop()
		if fi.FetchSeq != uint64(i) {
			t.Fatalf("pop order broken")
		}
	}
	if q.pop() != nil {
		t.Error("empty pop returned instr")
	}
	q.push(&FrontInstr{})
	q.clear()
	if !q.empty() {
		t.Error("clear left entries")
	}
}
