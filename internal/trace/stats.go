package trace

import (
	"io"
	"sort"

	"udpsim/internal/isa"
	"udpsim/internal/workload"
)

// RecordReader is the record stream analysis reads: a trace's Reader2,
// or any other producer of records (such as a live execution).
type RecordReader interface {
	Read() (Record, error)
}

// Stats summarizes a trace: instruction mix, control-flow behaviour,
// and footprint — the characterization data of the paper's Table I.
type Stats struct {
	Instructions uint64
	Taken        uint64
	Branches     uint64
	Loads        uint64
	Stores       uint64

	// Kinds counts dynamic branches by kind (the branch mix).
	Kinds [isa.NumBranchKinds]uint64

	// UniqueLines is the instruction-footprint in distinct cache lines.
	UniqueLines int
	// UniqueBlocks is the footprint in distinct fetch blocks.
	UniqueBlocks int

	blockCounts map[isa.Addr]uint64
}

// FootprintBytes returns the touched instruction footprint.
func (s *Stats) FootprintBytes() int { return s.UniqueLines * isa.LineBytes }

// TakenRatio returns taken transfers per instruction.
func (s *Stats) TakenRatio() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return float64(s.Taken) / float64(s.Instructions)
}

// BranchTakenRate returns the fraction of dynamic branches taken.
func (s *Stats) BranchTakenRate() float64 {
	if s.Branches == 0 {
		return 0
	}
	return float64(s.Taken) / float64(s.Branches)
}

// BlockCount is one entry of the hot-block ranking.
type BlockCount struct {
	Block isa.Addr
	Count uint64
}

// HotBlocks returns the n most-executed fetch blocks, by dynamic
// instruction count, hottest first (ties broken by address for
// deterministic output).
func (s *Stats) HotBlocks(n int) []BlockCount {
	out := make([]BlockCount, 0, len(s.blockCounts))
	for b, c := range s.blockCounts {
		out = append(out, BlockCount{Block: b, Count: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Block < out[j].Block
	})
	if n < len(out) {
		out = out[:n]
	}
	return out
}

// Analyze scans a whole trace against its program image, accumulating
// statistics.
func Analyze(prog *workload.Program, r RecordReader) (Stats, error) {
	var s Stats
	lines := make(map[uint64]struct{})
	s.blockCounts = make(map[isa.Addr]uint64)
	for {
		rec, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return s, err
		}
		s.Instructions++
		si := prog.InstrAt(rec.PC)
		if si.IsBranch() {
			s.Branches++
			s.Kinds[si.Branch]++
		}
		switch si.Class {
		case isa.ClassLoad:
			s.Loads++
		case isa.ClassStore:
			s.Stores++
		}
		if rec.Taken {
			s.Taken++
		}
		lines[rec.PC.LineIndex()] = struct{}{}
		s.blockCounts[rec.PC.Block()]++
	}
	s.UniqueLines = len(lines)
	s.UniqueBlocks = len(s.blockCounts)
	return s, nil
}
