package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"time"

	"udpsim/internal/experiments"
	"udpsim/internal/serve"
	"udpsim/internal/serve/client"
	"udpsim/internal/sim"
	"udpsim/internal/tune"
	"udpsim/internal/workload"
)

// daemonMixed is an in-process serve.NewServer over an on-disk result
// store, reached over loopback HTTP through serve/client by closed-loop
// clients (one per worker), each waiting for a job's terminal state
// before submitting its next. Most jobs are warm (every cell is in the
// store, so the job is a store read and no simulation), a minority are
// cold (tiny cells that simulate and write the store), and warm-store
// /v1/tune runs over configs/tune-smoke.json are interleaved.
type daemonMixed struct {
	reps       int
	st         *serve.Store
	srv        *serve.Server
	hs         *http.Server
	served     chan struct{} // closed when hs.Serve has returned
	base       string
	transports []*http.Transport
	clients    []*client.Client
	refs       map[string]sim.Result // cell key → in-process result from setup
	pools      [][]*experiments.Descriptor
	space      map[string]any // tune space template
	tuneSp     *tune.Space
	tuneBest   string
	generateMS []float64

	mu      sync.Mutex
	nonce   uint64
	coldSeq uint64
	rounds  int
	colds   []coldCell
	ops     []opObs
}

// opObs is one client operation as the client saw it.
type opObs struct {
	kind                       string // warm, cold or tune
	totalMS, submitMS, queueMS float64
	runMS, getMS               float64
	probes, cacheHits          int
}

// coldCell is a cold job's cell, re-simulated in-process after the
// measured phase to check the daemon's result.
type coldCell struct {
	key string
	cfg sim.Config
	got sim.Result
}

// warmConfigs are the cells of every warm descriptor; coldConfig is a
// config no warm descriptor uses, so cold cells never hit the store.
var warmConfigs = []experiments.ConfigSpec{
	{Label: "baseline", Mechanism: "baseline"},
	{Label: "udp", Mechanism: "udp"},
	{Label: "ftq16", Mechanism: "baseline", FTQ: 16},
	{Label: "udp-ftq64", Mechanism: "udp", FTQ: 64},
}

var coldConfig = experiments.ConfigSpec{Label: "cold", Mechanism: "udp", FTQ: 24}

func (dm *daemonMixed) nextNonce() uint64 {
	dm.mu.Lock()
	defer dm.mu.Unlock()
	dm.nonce++
	return dm.nonce
}

// coldDescriptor is the next cold job: a cell no earlier job asked for,
// so it must simulate and write the store. The cells differ in region
// length and warmup, by so little that every one costs the same.
func (dm *daemonMixed) coldDescriptor(e *env) *experiments.Descriptor {
	dm.mu.Lock()
	k := dm.coldSeq
	dm.coldSeq++
	dm.mu.Unlock()
	return &experiments.Descriptor{
		Name:         fmt.Sprintf("cold-%x-%d", e.seed, k),
		Workloads:    []string{"mysql"},
		Instructions: e.size.coldInstr + k%1024,
		Warmup:       k / 1024,
		Simpoints:    1,
		Configs:      []experiments.ConfigSpec{coldConfig},
	}
}

// warmDescriptor is pool entry p of client c. Entries differ in region
// length (and so in every cell key); the seed shifts the lengths.
func (dm *daemonMixed) warmDescriptor(e *env, c, p int) *experiments.Descriptor {
	return &experiments.Descriptor{
		Name:         fmt.Sprintf("warm-%x-c%d-p%d", e.seed, c, p),
		Workloads:    []string{"mysql"},
		Instructions: e.size.warmInstr + 16*uint64(c*e.size.pool+p) + e.seed%16,
		Simpoints:    1,
		Configs:      warmConfigs,
	}
}

func loadTuneTemplate() (map[string]any, error) {
	var raw []byte
	var err error
	for _, p := range []string{"configs/tune-smoke.json", "../configs/tune-smoke.json"} {
		if raw, err = os.ReadFile(p); err == nil {
			break
		}
	}
	if err != nil {
		return nil, err
	}
	var m map[string]any
	return m, json.Unmarshal(raw, &m)
}

// tuneSpace renders the tune-smoke space with the seed's search seed
// and a name nonce (run IDs are content-addressed on the space).
func (dm *daemonMixed) tuneSpace(e *env, name string) ([]byte, *tune.Space, error) {
	m := map[string]any{}
	for k, v := range dm.space {
		m[k] = v
	}
	m["name"] = name
	m["seed"] = int64(1 + e.seed%1_000_003)
	raw, err := json.Marshal(m)
	if err != nil {
		return nil, nil, err
	}
	sp, err := tune.ParseSpace(bytes.NewReader(raw))
	return raw, sp, err
}

func (dm *daemonMixed) setup(e *env, first bool) error {
	dm.reps++
	experiments.FlushResultCache()
	p := workload.MustByName("mysql")
	t0 := time.Now()
	var err error
	if first {
		_, err = sim.SharedImage(p)
	} else {
		_, err = workload.Generate(p)
	}
	if err != nil {
		return err
	}
	dm.generateMS = append(dm.generateMS, float64(time.Since(t0).Microseconds())/1000)

	st, err := serve.OpenStore(filepath.Join(e.work, fmt.Sprintf("store-%d", dm.reps)), 0, nil)
	if err != nil {
		return err
	}
	refs := map[string]sim.Result{}
	pools := make([][]*experiments.Descriptor, workers)
	for c := range pools {
		for i := 0; i < e.size.pool; i++ {
			d := dm.warmDescriptor(e, c, i)
			res, err := experiments.RunDescriptorObserved(d, nil, workers, experiments.Options{Store: st})
			if err != nil {
				return err
			}
			for _, r := range res {
				refs[experiments.CellKey(d, r.Workload, spec(d, r.Label))] = r.Result
			}
			pools[c] = append(pools[c], d)
		}
	}
	if dm.space == nil {
		if dm.space, err = loadTuneTemplate(); err != nil {
			return err
		}
	}
	_, sp, err := dm.tuneSpace(e, fmt.Sprintf("tune-smoke-%x", e.seed))
	if err != nil {
		return err
	}
	res, err := tune.New(sp, &tune.LocalProber{Space: sp, Store: st, Parallelism: workers}).Run(context.Background())
	if err != nil {
		return err
	}
	if !first {
		return nil
	}
	dm.st, dm.refs, dm.pools, dm.tuneSp, dm.tuneBest = st, refs, pools, sp, res.Best.Label
	experiments.FlushResultCache()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	dm.srv = serve.NewServer(serve.ServerConfig{Store: st, Workers: workers, Parallelism: 1})
	dm.hs = &http.Server{Handler: dm.srv.Handler()}
	dm.served = make(chan struct{})
	go func() {
		defer close(dm.served)
		_ = dm.hs.Serve(ln) // returns ErrServerClosed once close shuts it down
	}()
	dm.base = "http://" + ln.Addr().String()
	for c := 0; c < workers; c++ {
		t := &http.Transport{MaxIdleConnsPerHost: 2}
		dm.transports = append(dm.transports, t)
		cl := client.New(dm.base, &http.Client{Transport: t})
		cl.Name = fmt.Sprintf("perfbench-%d", c)
		cl.MaxAttempts = 1
		dm.clients = append(dm.clients, cl)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return dm.clients[0].WaitReady(ctx)
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// job submits one descriptor, waits for its terminal state over SSE,
// then fetches and checks every cell's stored result.
func (dm *daemonMixed) job(e *env, cl *client.Client, d *experiments.Descriptor, kind string) (opObs, error) {
	o := opObs{kind: kind}
	body, err := json.Marshal(d)
	if err != nil {
		return o, err
	}
	ctx := context.Background()
	t0 := time.Now()
	v, err := cl.Submit(ctx, body, client.SubmitOptions{})
	o.submitMS = msSince(t0)
	if !e.check(err == nil, "%s submit: %v", kind, err) {
		return o, err
	}
	final, err := cl.Wait(ctx, v.ID)
	o.totalMS = msSince(t0)
	if !e.check(err == nil && final.State == serve.JobDone, "%s job %s: %v", kind, v.ID, err) {
		return o, errors.Join(err, fmt.Errorf("job %s not done", v.ID))
	}
	created, _ := time.Parse(time.RFC3339Nano, final.Created)
	started, _ := time.Parse(time.RFC3339Nano, final.Started)
	finished, _ := time.Parse(time.RFC3339Nano, final.Finished)
	o.queueMS = float64(started.Sub(created).Nanoseconds()) / 1e6
	o.runMS = float64(finished.Sub(started).Nanoseconds()) / 1e6
	for _, cell := range final.Cells {
		g0 := time.Now()
		sr, err := cl.Result(ctx, cell.ResultKey)
		o.getMS += msSince(g0)
		if !e.check(err == nil, "result %s: %v", cell.ResultKey, err) {
			continue
		}
		checkRetired(e, kind+" "+cell.Label, sr.Result, d.Instructions)
		if kind == "warm" {
			want, ok := dm.refs[sr.Key]
			e.check(ok && reflect.DeepEqual(sr.Result, want), "warm cell %s differs from its in-process result", sr.Key)
			continue
		}
		dm.mu.Lock()
		dm.colds = append(dm.colds, coldCell{key: sr.Key, cfg: experiments.CellConfig(d, cell.Workload, spec(d, cell.Label)), got: sr.Result})
		dm.mu.Unlock()
	}
	o.getMS /= float64(max(len(final.Cells), 1))
	return o, nil
}

// tuneRun submits a warm-store tune run and waits for it; every probe
// must be a store hit and the incumbent must match setup's search.
func (dm *daemonMixed) tuneRun(e *env, cl *client.Client) (opObs, error) {
	o := opObs{kind: "tune"}
	body, _, err := dm.tuneSpace(e, fmt.Sprintf("tune-smoke-%x-%d", e.seed, dm.nextNonce()))
	if err != nil {
		return o, err
	}
	ctx := context.Background()
	t0 := time.Now()
	v, err := cl.Tune(ctx, body, client.SubmitOptions{})
	if !e.check(err == nil, "tune submit: %v", err) {
		return o, err
	}
	final, err := cl.WaitTune(ctx, v.ID)
	o.totalMS = msSince(t0)
	if !e.check(err == nil && final.State == serve.JobDone && final.Stats != nil && final.Best != nil,
		"tune run %s: %v", v.ID, err) {
		return o, errors.Join(err, fmt.Errorf("tune run %s not done", v.ID))
	}
	o.probes, o.cacheHits = final.Stats.Probes, final.Stats.CacheHits
	e.check(o.cacheHits == o.probes && final.Best.Label == dm.tuneBest,
		"warm tune run: %d/%d probes cached, best %s (want %s)", o.cacheHits, o.probes, final.Best.Label, dm.tuneBest)
	return o, nil
}

// round is the fixed job mix: every client runs warmPerRound warm jobs
// with one cold job in the middle, and client 0 also runs one tune.
func (dm *daemonMixed) round(e *env) (roundResult, error) {
	dm.mu.Lock()
	r := dm.rounds
	dm.rounds++
	dm.mu.Unlock()
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		out  roundResult
		errs = make([]error, len(dm.clients))
	)
	for c, cl := range dm.clients {
		wg.Add(1)
		go func(c int, cl *client.Client) {
			defer wg.Done()
			record := func(o opObs, err error) bool {
				mu.Lock()
				defer mu.Unlock()
				if err != nil {
					errs[c] = err
					return false
				}
				dm.ops = append(dm.ops, o)
				if o.kind != "tune" {
					out.jobsMS = append(out.jobsMS, o.totalMS)
				}
				return true
			}
			for i := 0; i <= e.size.warmPerRound; i++ {
				if i == e.size.warmPerRound/2 {
					d := dm.coldDescriptor(e)
					if !record(dm.job(e, cl, d, "cold")) {
						return
					}
					mu.Lock()
					out.simInstr += d.Warmup + d.Instructions
					mu.Unlock()
					if c == 0 && !record(dm.tuneRun(e, cl)) {
						return
					}
					continue
				}
				pool := dm.pools[c]
				d := *pool[(r*e.size.warmPerRound+i)%len(pool)]
				d.Name = fmt.Sprintf("%s-n%d", d.Name, dm.nextNonce())
				// Served from the store, not the engine's in-memory cache.
				experiments.FlushResultCache()
				if !record(dm.job(e, cl, &d, "warm")) {
					return
				}
			}
		}(c, cl)
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

// checkColds re-simulates every cold cell in-process and compares.
func (dm *daemonMixed) checkColds(e *env) {
	err := experiments.ForEach(len(dm.colds), workers, func(i int) error {
		c := dm.colds[i]
		_, want, err := sim.RunSimpointsObserved(c.cfg, 1, 1, nil)
		e.check(err == nil && reflect.DeepEqual(c.got, want), "cold cell %s differs from its in-process result", c.key)
		return nil
	})
	e.check(err == nil, "cold cell checks: %v", err)
	dm.colds = nil
}

func (dm *daemonMixed) finish(e *env) error {
	dm.checkColds(e)
	keys := make([]string, 0, len(dm.refs))
	for k := range dm.refs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	rs := make([]sim.Result, len(keys))
	for i, k := range keys {
		rs[i] = dm.refs[k]
	}
	printDigest("daemon-mixed", rs)
	return nil
}

// traced probes a mysql UDP cell (the daemon's cells are too short to
// time by stage) with the warm configs as the batch group, then the
// service layers.
func (dm *daemonMixed) traced(e *env) error {
	base := dm.pools[0][0]
	d := *base
	d.Instructions, d.Warmup = e.size.batchInstr, e.size.batchWarmup
	cfg := experiments.CellConfig(&d, "mysql", spec(&d, "udp"))
	cfg.SeedSalt = sim.SimpointSalt(0)
	prog, err := sim.SharedImage(cfg.Workload)
	if err != nil {
		return err
	}
	var batch []sim.Config
	for _, cs := range d.Configs {
		c := experiments.CellConfig(&d, "mysql", cs)
		c.SeedSalt = cfg.SeedSalt
		batch = append(batch, c)
	}
	p := &simProbe{
		cfg: cfg, prog: prog, batch: batch, execProg: prog, salt: cfg.SeedSalt,
		generateMS: median(dm.generateMS), description: "daemon-mixed mysql/udp",
	}
	if err := p.run(e); err != nil {
		return err
	}
	return dm.layers(e)
}

// serviceLayers reports the serve.* and tune.* per-layer metrics from
// a short daemon session; the simulator workloads' traced runs use it.
func serviceLayers(e *env) error {
	dm := &daemonMixed{}
	defer dm.close()
	if err := dm.setup(e, true); err != nil {
		return err
	}
	return dm.layers(e)
}

// layers runs a daemon session of at least size.serviceS seconds, and
// until the run's time budget is spent, and reports the per-layer
// service metrics.
func (dm *daemonMixed) layers(e *env) error {
	// One untimed round so connections, the image and the store's read
	// layer are warm.
	if _, err := dm.round(e); err != nil {
		return err
	}
	dm.ops = nil
	ctx := context.Background()
	cl := dm.clients[0]
	var scrapeMS []float64
	scrape := func() (hits, misses float64, err error) {
		t0 := time.Now()
		samples, err := cl.Metrics(ctx)
		scrapeMS = append(scrapeMS, msSince(t0))
		if !e.check(err == nil, "metrics scrape: %v", err) {
			return 0, 0, err
		}
		hits, okH := client.MetricValue(samples, "udpsim_store_hits", nil)
		misses, okM := client.MetricValue(samples, "udpsim_store_misses", nil)
		e.check(okH && okM, "store hit/miss series missing from /metrics")
		return hits, misses, nil
	}
	h0, m0, err := scrape()
	if err != nil {
		return err
	}
	start := time.Now()
	for time.Since(start).Seconds() < e.size.serviceS || time.Now().Before(e.deadline) {
		if _, err := dm.round(e); err != nil {
			return err
		}
		if _, _, err := scrape(); err != nil {
			return err
		}
	}
	h1, m1, err := scrape()
	if err != nil {
		return err
	}
	dm.checkColds(e)
	pick := func(kind string, f func(opObs) float64) []float64 {
		var xs []float64
		for _, o := range dm.ops {
			if kind == "" && o.kind != "tune" || o.kind == kind {
				xs = append(xs, f(o))
			}
		}
		return xs
	}
	e.put("serve.submit_ms", median(pick("", func(o opObs) float64 { return o.submitMS })), "ms")
	e.put("serve.queue_wait_ms", median(pick("", func(o opObs) float64 { return o.queueMS })), "ms")
	e.put("serve.run_warm_ms", median(pick("warm", func(o opObs) float64 { return o.runMS })), "ms")
	e.put("serve.run_cold_ms", median(pick("cold", func(o opObs) float64 { return o.runMS })), "ms")
	e.put("serve.result_get_ms", median(pick("", func(o opObs) float64 { return o.getMS })), "ms")
	e.put("serve.metrics_scrape_ms", median(scrapeMS), "ms")
	e.put("serve.store_hit_ratio", (h1-h0)/max(h1-h0+m1-m0, 1), "frac")
	var probes, hits int
	for _, o := range dm.ops {
		probes += o.probes
		hits += o.cacheHits
	}
	tunes := pick("tune", func(o opObs) float64 { return o.totalMS })
	e.put("tune.warm_run_ms", median(tunes), "ms")
	e.put("tune.probes_per_run", float64(probes)/float64(max(len(tunes), 1)), "count")
	e.put("tune.probe_cache_hit_ratio", float64(hits)/float64(max(probes, 1)), "frac")

	var driverMS []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		res, err := tune.New(dm.tuneSp, &tune.LocalProber{Space: dm.tuneSp, Store: dm.st, Parallelism: workers}).Run(ctx)
		driverMS = append(driverMS, msSince(t0))
		e.check(err == nil && res.Stats.CacheHits == res.Stats.Probes, "warm tune driver: %v", err)
	}
	e.put("tune.driver_ms", median(driverMS), "ms")
	return dm.storeLayer(e)
}

// storeLayer times Store.Load (from disk, cold read layer) and
// Store.Save on a copy of the store.
func (dm *daemonMixed) storeLayer(e *env) error {
	src := filepath.Join(dm.st.Dir(), "objects")
	dst := filepath.Join(filepath.Dir(dm.st.Dir()), "store-copy")
	if err := copyTree(src, filepath.Join(dst, "objects")); err != nil {
		return err
	}
	st, err := serve.OpenStore(dst, 0, nil)
	if err != nil {
		return err
	}
	var loadUS, saveUS []float64
	for key, want := range dm.refs {
		t0 := time.Now()
		r, ok, err := st.Load(key)
		loadUS = append(loadUS, msSince(t0)*1000)
		e.check(err == nil && ok && reflect.DeepEqual(r, want), "store copy load %s", key)
		t1 := time.Now()
		err = st.Save(key, r)
		saveUS = append(saveUS, msSince(t1)*1000)
		e.check(err == nil, "store copy save %s: %v", key, err)
	}
	e.put("serve.store_load_us", median(loadUS), "us")
	e.put("serve.store_save_us", median(saveUS), "us")
	return nil
}

func copyTree(src, dst string) error {
	return filepath.Walk(src, func(p string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, p)
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(p)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// close drains the daemon, shuts its HTTP server down and waits for it.
// Errors are dropped: the run's results are already checked and printed.
func (dm *daemonMixed) close() {
	if dm.hs == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = dm.srv.Drain(ctx)
	_ = dm.hs.Shutdown(ctx)
	<-dm.served
	for _, t := range dm.transports {
		t.CloseIdleConnections()
	}
	dm.hs = nil
}
