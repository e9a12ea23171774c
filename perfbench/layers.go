package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"reflect"
	"time"

	"udpsim/internal/bp"
	"udpsim/internal/btb"
	"udpsim/internal/cache"
	"udpsim/internal/core"
	"udpsim/internal/experiments"
	"udpsim/internal/isa"
	"udpsim/internal/sim"
	"udpsim/internal/trace"
	"udpsim/internal/workload"
)

// sizes sets every region length and count the workloads use. The full
// sizes define the benchmark; the short ones only keep the smoke test
// fast and produce numbers that are not comparable.
type sizes struct {
	gridWarmup, gridInstr   uint64 // Fig. 13 region (figures -quick)
	sweepWarmup, sweepInstr uint64 // lockstep sweep region
	batchWarmup, batchInstr uint64 // traced RunBatch-vs-serial region
	captureInstr            uint64 // executor instructions captured for replays
	warmInstr, coldInstr    uint64 // daemon cell regions (no warmup)
	pool                    int    // warm descriptors per daemon client
	warmPerRound            int    // warm jobs per client per daemon round
	serviceS                float64
}

var fullSizes = sizes{
	gridWarmup: 150_000, gridInstr: 120_000,
	sweepWarmup: 60_000, sweepInstr: 100_000,
	batchWarmup: 40_000, batchInstr: 40_000,
	captureInstr: 200_000,
	warmInstr:    3_000, coldInstr: 2_000,
	pool: 6, warmPerRound: 8,
	serviceS: 2,
}

var shortSizes = sizes{
	gridWarmup: 4_000, gridInstr: 4_000,
	sweepWarmup: 4_000, sweepInstr: 4_000,
	batchWarmup: 3_000, batchInstr: 3_000,
	captureInstr: 20_000,
	warmInstr:    1_000, coldInstr: 1_000,
	pool: 2, warmPerRound: 2,
	serviceS: 0.3,
}

// traceMargin is how far past the simulated region a recorded trace
// must extend: lockstep tapes and the oracle run ahead of retirement.
const traceMargin = 150_000

// checkRetired asserts a result retired the requested instruction
// count (the last cycle may retire up to one issue width past it).
func checkRetired(e *env, label string, r sim.Result, want uint64) {
	e.check(r.Instructions >= want && r.Instructions < want+6,
		"%s retired %d instructions, want %d", label, r.Instructions, want)
}

// spec returns the config of d labelled label; the benchmark only asks
// for labels it put there.
func spec(d *experiments.Descriptor, label string) experiments.ConfigSpec {
	for _, cs := range d.Configs {
		if cs.Label == label {
			return cs
		}
	}
	panic("no config " + label)
}

// printDigest prints a digest of every simulated result a workload
// produced, so a pure-speed change can show them bit-identical.
func printDigest(workloadName string, rs []sim.Result) {
	h := sha256.New()
	for _, r := range rs {
		b, _ := json.Marshal(r)
		h.Write(b)
	}
	fmt.Printf("# digest %s %s results=%d\n", workloadName, hex.EncodeToString(h.Sum(nil))[:24], len(rs))
}

// stageTimes is host time per Machine.Step stage over the sampled
// cycles.
type stageTimes struct {
	hier, fe, be time.Duration
	samples      uint64
}

// stageSampleMask times one cycle in sixteen.
const stageSampleMask = 15

// runStaged is Machine.Run with Step unrolled here, in Step's order, so
// each stage can be timed from outside the program: Hier.Tick, FE.Cycle
// and BE.Cycle per cycle, ResetStats at the end of warmup. Its Snapshot
// must equal Machine.Run's result for the same config.
func runStaged(m *sim.Machine, warmup, instrs uint64) (sim.Result, stageTimes) {
	var st stageTimes
	c := m.Cycle()
	steps := func(n uint64) {
		target := m.BE.Stats.Retired + n
		for m.BE.Stats.Retired < target {
			c++
			if c&stageSampleMask != 0 {
				m.Hier.Tick(c)
				m.FE.Cycle(c)
				m.BE.Cycle(c)
				continue
			}
			t0 := time.Now()
			m.Hier.Tick(c)
			t1 := time.Now()
			m.FE.Cycle(c)
			t2 := time.Now()
			m.BE.Cycle(c)
			t3 := time.Now()
			st.hier += t1.Sub(t0)
			st.fe += t2.Sub(t1)
			st.be += t3.Sub(t2)
			st.samples++
		}
	}
	if warmup > 0 {
		steps(warmup)
		m.ResetStats()
	}
	if instrs == 0 {
		instrs = 1_000_000
	}
	steps(instrs)
	return m.Snapshot(), st
}

// simProbe is the simulator half of the traced mode for one workload:
// its representative cell, the K configs that share that cell's stream,
// and the synthetic image whose executor feeds the sub-layer replays.
type simProbe struct {
	cfg      sim.Config
	prog     *workload.Program
	batch    []sim.Config
	execProg *workload.Program
	salt     uint64
	// traceData, when set, is the workload's own recording (decode is
	// timed on it); otherwise a capture-length trace is recorded here.
	traceData   []byte
	encodeNs    float64 // encode ns/instr measured in setup, if recorded there
	generateMS  float64 // median image generation time from setup
	description string
}

// capture is the input stream replayed into the sub-layers.
type capture struct {
	conds    []branchRec // conditional branches (bp)
	branches []branchRec // every branch (btb)
	lines    []isa.Addr  // icache line sequence (cache, memory, core)
	records  []trace.Record
}

type branchRec struct {
	pc, target isa.Addr
	kind       isa.BranchKind
	taken      bool
}

func captureStream(src workload.Stream, n uint64) *capture {
	c := &capture{}
	var last isa.Addr = 1
	for i := uint64(0); i < n; i++ {
		d := src.Next()
		pc := d.PC()
		c.records = append(c.records, trace.Record{PC: pc, Target: d.Target, DataAddr: d.DataAddr, Taken: d.Taken})
		if l := pc.Line(); l != last {
			c.lines = append(c.lines, l)
			last = l
		}
		if k := d.Static.Branch; k != isa.BranchNone {
			b := branchRec{pc: pc, target: d.Target, kind: k, taken: d.Taken}
			c.branches = append(c.branches, b)
			if k == isa.BranchCond {
				c.conds = append(c.conds, b)
			}
		}
	}
	return c
}

func nsPer(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}

// run reports the sim.*, bp.*, btb.*, cache.*, memory.*, core.*,
// workload.*, trace.* and frontend.* per-layer metrics.
func (p *simProbe) run(e *env) error {
	fmt.Printf("# traced cell: %s\n", p.description)
	warm, instrs := p.cfg.WarmupInstructions, p.cfg.MaxInstructions

	// Untraced Machine.Run against the stage driver, alternated.
	var plainS, stagedS []float64
	var stages stageTimes
	var ref sim.Result
	var cycles uint64
	for i := 0; i < 2; i++ {
		m, err := sim.NewMachineWithProgram(p.cfg, p.prog)
		if err != nil {
			return err
		}
		t0 := time.Now()
		r := m.Run()
		plainS = append(plainS, time.Since(t0).Seconds())
		ref, cycles = r, m.Cycle()

		m2, err := sim.NewMachineWithProgram(p.cfg, p.prog)
		if err != nil {
			return err
		}
		t1 := time.Now()
		r2, st := runStaged(m2, warm, instrs)
		stagedS = append(stagedS, time.Since(t1).Seconds())
		stages.hier += st.hier
		stages.fe += st.fe
		stages.be += st.be
		stages.samples += st.samples
		e.check(reflect.DeepEqual(r, r2), "stage driver Snapshot differs from Machine.Run (%s)", p.description)
		checkRetired(e, "traced cell", r, instrs)
	}
	plain := median(plainS)
	e.put("sim.step_ns", plain*1e9/float64(cycles), "ns")
	e.put("sim.cycles_per_instr", float64(cycles)/float64(warm+instrs), "cycles/instr")
	e.put("sim.trace_overhead_pct", (median(stagedS)-plain)/plain*100, "%")
	e.put("sim.hier_tick_ns", nsPer(stages.hier, int(stages.samples)), "ns")
	e.put("sim.fe_cycle_ns", nsPer(stages.fe, int(stages.samples)), "ns")
	e.put("sim.be_cycle_ns", nsPer(stages.be, int(stages.samples)), "ns")

	pki := func(v uint64) float64 { return float64(v) / float64(ref.Instructions) * 1000 }
	e.put("frontend.icache_mpki", ref.IcacheMPKI, "1/kinstr")
	e.put("frontend.prefetch_usefulness", ref.Usefulness, "frac")
	e.put("frontend.prefetch_onpath_ratio", ref.OnPathRatio, "frac")
	e.put("frontend.timeliness", ref.Timeliness, "frac")
	e.put("frontend.lost_pki", ref.LostInstrsPKI, "1/kinstr")
	e.put("memory.dram_queue_cycles_pki", pki(ref.Mem.DRAMQueueCycles), "cycles/kinstr")
	e.put("memory.prefetch_drops_pki", pki(ref.Mem.PrefetchDrops()), "1/kinstr")

	// The same K configs through RunBatch and through serial RunCtx.
	k := len(p.batch)
	t0 := time.Now()
	bres, berrs := sim.RunBatch(p.batch, workers)
	batchT := time.Since(t0)
	sres := make([]sim.Result, k)
	t1 := time.Now()
	err := experiments.ForEach(k, workers, func(i int) error {
		m, err := sim.NewMachineWithProgram(p.batch[i], p.prog)
		if err != nil {
			return err
		}
		sres[i] = m.Run()
		return nil
	})
	serialT := time.Since(t1)
	if err != nil {
		return err
	}
	for i := range p.batch {
		e.check(berrs[i] == nil && reflect.DeepEqual(bres[i], sres[i]),
			"RunBatch config %d differs from its serial run (err %v)", i, berrs[i])
	}
	batchInstr := k * int(p.batch[0].WarmupInstructions+p.batch[0].MaxInstructions)
	e.put("sim.batch_ns_per_instr", nsPer(batchT, batchInstr), "ns")
	e.put("sim.serial_ns_per_instr", nsPer(serialT, batchInstr), "ns")

	// Sub-layer replays over inputs captured from the executor.
	n := e.size.captureInstr
	ex := workload.NewExecutor(p.execProg, p.salt)
	t0 = time.Now()
	for i := uint64(0); i < n; i++ {
		ex.Next()
	}
	e.put("workload.next_ns", nsPer(time.Since(t0), int(n)), "ns")
	in := captureStream(workload.NewExecutor(p.execProg, p.salt), n)
	e.put("workload.generate_ms", p.generateMS, "ms")

	tage := bp.NewTage(p.cfg.Tage)
	t0 = time.Now()
	for _, b := range in.conds {
		pred := tage.Predict(b.pc)
		tage.SpecUpdate(b.pc, b.taken)
		tage.Train(b.pc, b.taken, pred)
	}
	e.put("bp.tage_ns", nsPer(time.Since(t0), len(in.conds)), "ns")

	bt := btb.New(btb.Config{Entries: p.cfg.BTBEntries, Ways: p.cfg.BTBWays})
	t0 = time.Now()
	for i, b := range in.branches {
		if _, hit := bt.Lookup(b.pc, uint64(i)); !hit && b.taken {
			bt.Insert(b.pc, b.kind, b.target, uint64(i))
		}
	}
	e.put("btb.lookup_ns", nsPer(time.Since(t0), len(in.branches)), "ns")
	e.put("btb.hit_ratio", float64(bt.Stats.Hits)/float64(max(bt.Stats.Lookups, 1)), "frac")

	ic := cache.New(cache.Config{Name: "L1I", SizeBytes: p.cfg.ICacheBytes, Ways: p.cfg.ICacheWays,
		Policy: cache.LRU, HitLatency: 3})
	t0 = time.Now()
	for i, l := range in.lines {
		if !ic.Access(l, uint64(i)).Hit {
			ic.Insert(l, uint64(i), false)
		}
	}
	e.put("cache.access_ns", nsPer(time.Since(t0), len(in.lines)), "ns")
	e.put("cache.hit_ratio", ic.Stats.HitRate(), "frac")

	fresh, err := sim.NewMachineWithProgram(p.cfg, p.prog)
	if err != nil {
		return err
	}
	h := fresh.Hier
	var cyc uint64
	t0 = time.Now()
	for _, l := range in.lines {
		cyc += 2
		h.Tick(cyc)
		h.InstrRequest(l, cyc, false)
	}
	e.put("memory.instr_request_ns", nsPer(time.Since(t0), len(in.lines)), "ns")

	for _, set := range []struct {
		name string
		s    core.UsefulSet
	}{{"core.bloom_lookup_ns", core.NewBloomUsefulSet()}, {"core.infinite_lookup_ns", core.NewInfiniteUsefulSet()}} {
		for i, l := range in.lines {
			if i%2 == 0 {
				set.s.Learn(l)
			}
		}
		t0 = time.Now()
		for _, l := range in.lines {
			set.s.Lookup(l)
		}
		e.put(set.name, nsPer(time.Since(t0), len(in.lines)), "ns")
	}

	// Trace codec: the workload's own recording when it has one, else a
	// capture-length recording of the same executor stream.
	data, encodeNs := p.traceData, p.encodeNs
	if data == nil {
		var buf bytes.Buffer
		t0 = time.Now()
		w, err := trace.NewWriter2(&buf, p.execProg, p.salt, trace.EncBinary)
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
		encodeNs = nsPer(time.Since(t0), len(in.records))
		data = buf.Bytes()
	}
	t0 = time.Now()
	src, err := trace.LoadSourceBytes("decode-probe", data)
	if err != nil {
		return err
	}
	e.put("trace.decode_ns_per_instr", nsPer(time.Since(t0), int(src.Len())), "ns")
	e.put("trace.encode_ns_per_instr", encodeNs, "ns")
	return nil
}
