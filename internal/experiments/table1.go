package experiments

import (
	"io"

	"udpsim/internal/sim"
	"udpsim/internal/trace"
	"udpsim/internal/workload"
)

// Table1Row characterizes one application, mirroring the workload table
// papers of this genre lead their evaluation with: static and dynamic
// instruction footprint, branch density, and baseline miss rates.
type Table1Row struct {
	App string
	// StaticKB is the generated code image size.
	StaticKB int
	// DynamicKB is the instruction footprint touched in the
	// characterization window.
	DynamicKB int
	// BranchPct is the fraction of dynamic instructions that are
	// control transfers.
	BranchPct float64
	// TakenPct is the fraction of dynamic instructions that redirect
	// fetch.
	TakenPct float64
	// IcacheMPKI and BranchMPKI are the FDIP-32 baseline rates.
	IcacheMPKI float64
	BranchMPKI float64
	// BaselineIPC is the FDIP-32 IPC.
	BaselineIPC float64
}

// Table1 builds the workload characterization table. Each app's
// characterization (trace window + baseline run) is an independent
// cell, so apps run concurrently on the engine's worker pool; the row
// order stays the input workload order.
func Table1(o Options) ([]Table1Row, error) {
	apps := o.workloads()
	rows := make([]Table1Row, len(apps))
	err := ForEach(len(apps), o.parallelism(), func(i int) error {
		app := apps[i]
		prof := workload.MustByName(app)
		prog, err := sim.SharedImage(prof)
		if err != nil {
			return err
		}

		// Dynamic characterization of the executed window.
		n := o.Instructions
		if n < 100_000 {
			n = 100_000
		}
		st, err := trace.Analyze(prog, &execRecords{exec: workload.NewExecutor(prog, 0), left: n})
		if err != nil {
			return err
		}

		base, err := o.run(app, mechSpec(sim.MechBaseline))
		if err != nil {
			return err
		}

		rows[i] = Table1Row{
			App:         app,
			StaticKB:    prog.FootprintBytes() / 1024,
			DynamicKB:   st.FootprintBytes() / 1024,
			BranchPct:   float64(st.Branches) / float64(st.Instructions) * 100,
			TakenPct:    st.TakenRatio() * 100,
			IcacheMPKI:  base.IcacheMPKI,
			BranchMPKI:  base.BranchMPKI,
			BaselineIPC: base.IPC,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// execRecords reads the first left instructions of a live execution as
// trace records, so Analyze characterizes it without a recorded trace.
type execRecords struct {
	exec *workload.Executor
	left uint64
}

func (e *execRecords) Read() (trace.Record, error) {
	if e.left == 0 {
		return trace.Record{}, io.EOF
	}
	e.left--
	d := e.exec.Next()
	return trace.Record{PC: d.PC(), Target: d.Target, DataAddr: d.DataAddr, Taken: d.Taken}, nil
}
