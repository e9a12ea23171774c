// Package trace records and replays dynamic instruction streams, the
// equivalent of the paper's DynamoRIO / Intel PT trace methodology: a
// trace captures "a precise continuous sequence of dynamically executed
// basic blocks and memory addresses" (Section III-A) which the
// simulator's trace-driven frontend replays. It also implements
// simpoint-style representative-region selection over basic-block
// vectors.
//
// Traces are self-contained UDPT2 files (see v2.go): the static program
// image is embedded next to the dynamic outcomes, so replay needs no
// workload generator.
package trace

import "udpsim/internal/isa"

// Record is one dynamic instruction outcome; Static context is
// recovered from the program image at replay.
type Record struct {
	PC       isa.Addr
	Target   isa.Addr // resolved next PC
	DataAddr isa.Addr // loads/stores
	Taken    bool
}

// flags encode which fields follow the PC delta in the binary record
// encoding.
const (
	flagTaken   = 1 << 0
	flagHasData = 1 << 1
	flagHasTgt  = 1 << 2 // target differs from fall-through
	flagSeqPC   = 1 << 3 // pc == lastPC + 4 (no delta follows)
)
