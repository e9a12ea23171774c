package main

import (
	"bytes"
	"fmt"
	"reflect"
	"time"

	"udpsim/internal/experiments"
	"udpsim/internal/sim"
	"udpsim/internal/trace"
	"udpsim/internal/workload"
)

// sweepTrace is a UDP FTQ-depth sweep over a UDPT2 trace of xgboost,
// lockstep-batched through the engine (Options.Batch). The trace is
// recorded in setup at a seed-derived salt; each round decodes it
// (trace.LoadSourceBytes, as `sweep -trace` does) and runs the sweep, so
// the input comes from the trace decoder and the shared tape instead of
// the executor.
type sweepTrace struct {
	execProg   *workload.Program
	salt       uint64
	name       string
	data       []byte
	d          *experiments.Descriptor
	first      []experiments.DescriptorResult
	encodeNs   []float64
	generateMS []float64
}

var sweepFTQs = []int{8, 16, 24, 32, 48, 64, 96, 128}

func (s *sweepTrace) setup(e *env, first bool) error {
	p := workload.MustByName("xgboost")
	t0 := time.Now()
	var prog *workload.Program
	var err error
	if first {
		prog, err = sim.SharedImage(p)
	} else {
		prog, err = workload.Generate(p)
	}
	if err != nil {
		return err
	}
	s.generateMS = append(s.generateMS, float64(time.Since(t0).Microseconds())/1000)

	salt := 1 + e.seed%1_000_003
	n := e.size.sweepWarmup + e.size.sweepInstr + traceMargin
	in := captureStream(workload.NewExecutor(prog, salt), n)
	var buf bytes.Buffer
	t1 := time.Now()
	w, err := trace.NewWriter2(&buf, prog, salt, trace.EncBinary)
	if err != nil {
		return err
	}
	for _, r := range in.records {
		if err := w.Write(r); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	s.encodeNs = append(s.encodeNs, nsPer(time.Since(t1), len(in.records)))
	if !first {
		return nil
	}
	s.execProg, s.salt, s.data = prog, salt, buf.Bytes()
	s.name = fmt.Sprintf("xgb-%x", e.seed)
	src, err := trace.LoadSourceBytes(s.name, s.data)
	if err != nil {
		return err
	}
	workload.RegisterSource(src)
	s.d = &experiments.Descriptor{
		Name:         "sweep-" + s.name,
		Traces:       []experiments.TraceSpec{{Name: s.name, SHA256: src.SHA256()}},
		Instructions: e.size.sweepInstr,
		Warmup:       e.size.sweepWarmup,
		Simpoints:    1,
	}
	for _, f := range sweepFTQs {
		s.d.Configs = append(s.d.Configs, experiments.ConfigSpec{Label: fmt.Sprintf("ftq%d", f), Mechanism: "udp", FTQ: f})
	}
	return s.d.Validate()
}

func (s *sweepTrace) round(e *env) (roundResult, error) {
	experiments.FlushResultCache()
	src, err := trace.LoadSourceBytes(s.name, s.data)
	if !e.check(err == nil, "trace decode failed: %v", err) {
		return roundResult{}, err
	}
	workload.RegisterSource(src)
	res, err := experiments.RunDescriptorObserved(s.d, nil, workers, experiments.Options{Batch: true})
	if !e.check(err == nil, "sweep failed: %v", err) {
		return roundResult{}, err
	}
	for i, r := range res {
		checkRetired(e, "sweep "+r.Label, r.Result, s.d.Instructions)
		if s.first != nil {
			e.check(reflect.DeepEqual(r.Result, s.first[i].Result), "sweep cell %s differs between rounds", r.Label)
		}
	}
	if s.first == nil {
		s.first = res
	}
	return roundResult{simInstr: uint64(len(res)) * (s.d.Instructions + s.d.Warmup)}, nil
}

// finish replays the FTQ=32 cell serially and requires the lockstep
// result to match it.
func (s *sweepTrace) finish(e *env) error {
	cfg := s.cell("ftq32")
	m, err := sim.NewMachine(cfg)
	if err != nil {
		return err
	}
	serial := m.Run()
	var batched sim.Result
	rs := make([]sim.Result, len(s.first))
	for i, r := range s.first {
		rs[i] = r.Result
		if r.Label == "ftq32" {
			batched = r.Result
		}
	}
	e.check(reflect.DeepEqual(serial, batched), "lockstep FTQ=32 cell differs from its serial replay")
	printDigest("sweep-trace-lockstep", rs)
	return nil
}

func (s *sweepTrace) cell(label string) sim.Config {
	return experiments.CellConfig(s.d, "trace:"+s.name, spec(s.d, label))
}

// traced probes the FTQ=32 cell; the batch group is the whole sweep at
// its full region.
func (s *sweepTrace) traced(e *env) error {
	cfg := s.cell("ftq32")
	prog, err := workload.MustSourceByKey("trace:" + cfg.TraceRef).Image()
	if err != nil {
		return err
	}
	var batch []sim.Config
	for _, cs := range s.d.Configs {
		batch = append(batch, s.cell(cs.Label))
	}
	p := &simProbe{
		cfg: cfg, prog: prog, batch: batch, execProg: s.execProg, salt: s.salt,
		traceData: s.data, encodeNs: median(s.encodeNs), generateMS: median(s.generateMS),
		description: "sweep-trace-lockstep ftq32 over " + s.name,
	}
	if err := p.run(e); err != nil {
		return err
	}
	return serviceLayers(e)
}

func (s *sweepTrace) close() {}
