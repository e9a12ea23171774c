package trace

import (
	"fmt"
	"io"
	"text/tabwriter"

	"udpsim/internal/isa"
	"udpsim/internal/workload"
)

// InspectReport writes the corpus-triage summary of an analyzed trace:
// the recording's workload, salt and embedded image, then instruction
// count, branch mix by kind, taken rate, code footprint, and the top-N
// hot fetch blocks with their share of dynamic instructions. The format
// is stable enough for table-driven tests to pin (cmd/trace inspect
// wraps it unchanged).
func InspectReport(w io.Writer, name string, salt uint64, prog *workload.Program, st *Stats, top int) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\t%s\n", name)
	fmt.Fprintf(tw, "salt\t%d\n", salt)
	fmt.Fprintf(tw, "image\t%s\n", prog)
	fmt.Fprintf(tw, "instructions\t%d\n", st.Instructions)
	fmt.Fprintf(tw, "branches\t%d (%.1f%% of instrs)\n",
		st.Branches, pct(st.Branches, st.Instructions))
	for k := isa.BranchCond; k < isa.BranchKind(isa.NumBranchKinds); k++ {
		if st.Kinds[k] == 0 {
			continue
		}
		fmt.Fprintf(tw, "  %s\t%d (%.1f%% of branches)\n",
			k, st.Kinds[k], pct(st.Kinds[k], st.Branches))
	}
	fmt.Fprintf(tw, "taken rate\t%.3f of branches, %.3f of instrs\n",
		st.BranchTakenRate(), st.TakenRatio())
	fmt.Fprintf(tw, "loads\t%d (%.1f%%)\n", st.Loads, pct(st.Loads, st.Instructions))
	fmt.Fprintf(tw, "stores\t%d (%.1f%%)\n", st.Stores, pct(st.Stores, st.Instructions))
	fmt.Fprintf(tw, "footprint\t%d KiB (%d lines, %d fetch blocks)\n",
		st.FootprintBytes()/1024, st.UniqueLines, st.UniqueBlocks)
	if top > 0 {
		hot := st.HotBlocks(top)
		fmt.Fprintf(tw, "hot blocks\ttop %d of %d\n", len(hot), st.UniqueBlocks)
		for i, h := range hot {
			fmt.Fprintf(tw, "  #%d\t%s\t%d instrs (%.2f%%)\n",
				i+1, h.Block, h.Count, pct(h.Count, st.Instructions))
		}
	}
	return tw.Flush()
}

func pct(n, of uint64) float64 {
	if of == 0 {
		return 0
	}
	return 100 * float64(n) / float64(of)
}
