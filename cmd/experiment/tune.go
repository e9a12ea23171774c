package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"strings"
	"text/tabwriter"

	"udpsim/internal/serve"
	"udpsim/internal/serve/client"
	"udpsim/internal/tune"
)

// runTuneLocal drives the search in-process: the LocalProber evaluates
// probes through the engine (optionally against a disk store as the
// acquisition cache), and frontier events stream to stderr as they
// happen.
func runTuneLocal(sp *tune.Space, storeDir string, parallel int, verbose bool, log *slog.Logger) (*tune.Result, error) {
	prober := &tune.LocalProber{Space: sp, Parallelism: parallel}
	if storeDir != "" {
		st, err := serve.OpenStore(storeDir, 0, log)
		if err != nil {
			return nil, fmt.Errorf("opening result store: %w", err)
		}
		prober.Store = st
	}
	drv := tune.New(sp, prober)
	drv.OnEvent = func(ev tune.Event) { renderTuneEvent(ev, verbose) }
	return drv.Run(context.Background())
}

// runTuneDaemon submits the space to a udpsimd /v1/tune endpoint and
// follows the run's SSE stream until it finishes.
func runTuneDaemon(sp *tune.Space, raw []byte, daemon string, verbose bool, log *slog.Logger) (*serve.TuneView, error) {
	c := client.New(daemon, nil)
	c.Name = "experiment"
	v, err := c.Tune(context.Background(), raw, client.SubmitOptions{})
	if err != nil {
		return nil, err
	}
	log.Info("tune run submitted", "id", v.ID, "deduped", v.Deduped,
		"space_size", v.SpaceSize, "planned_probes", v.PlannedProbes, "trace", v.TraceID)
	return c.TuneStream(context.Background(), v.ID, 0, func(ev serve.Event) error {
		var te tune.Event
		if json.Unmarshal(ev.Data, &te) == nil && te.Type != "" {
			renderTuneEvent(te, verbose)
		}
		return nil
	})
}

// renderTuneEvent prints one frontier line per driver event. Probe and
// elimination events are verbose-only; generation summaries and
// incumbent updates always print.
func renderTuneEvent(ev tune.Event, verbose bool) {
	switch ev.Type {
	case "incumbent":
		fmt.Fprintf(os.Stderr, "incumbent %s score=%.4f  %s\n", ev.Label, ev.Score, ev.Config)
	case "generation":
		fmt.Fprintf(os.Stderr, "gen %s rung=%d evaluated=%d survivors=%d best=%s score=%.4f probes=%d hits=%d\n",
			ev.Phase, ev.Rung, ev.Evaluated, ev.Survivors, ev.BestLabel, ev.BestScore, ev.Probes, ev.CacheHits)
	case "eliminated":
		if verbose {
			fmt.Fprintf(os.Stderr, "eliminated rung=%d %d candidates: %s\n",
				ev.Rung, len(ev.Eliminated), strings.Join(ev.Eliminated, " "))
		}
	case "probe":
		if verbose {
			fmt.Fprintf(os.Stderr, "probe %s rung=%d score=%.4f  %s\n", ev.Label, ev.Rung, ev.Score, ev.Config)
		}
	}
}

// printTuneTable renders the final best-config table: one row per
// dimension assignment, then the score and probe accounting.
func printTuneTable(sp *tune.Space, config string, score float64, stats tune.Stats, planned int) {
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "dimension\tvalue\n")
	for _, part := range strings.Fields(config) {
		if name, val, ok := strings.Cut(part, "="); ok {
			fmt.Fprintf(tw, "%s\t%s\n", name, val)
		}
	}
	fmt.Fprintf(tw, "\t\n")
	fmt.Fprintf(tw, "objective\t%s\n", sp.Objective)
	fmt.Fprintf(tw, "score\t%.4f\n", score)
	fmt.Fprintf(tw, "space size\t%d\n", sp.SpaceSize())
	fmt.Fprintf(tw, "probes\t%d (planned %d, refine %d, cache hits %d)\n",
		stats.Probes, planned, stats.RefineProbes, stats.CacheHits)
	fmt.Fprintf(tw, "generations\t%d (incumbent updates %d, eliminated %d)\n",
		stats.Generations, stats.IncumbentUpdates, stats.Eliminated)
	tw.Flush()
}

// runTuneCmd is the `experiment -tune space.json` entry point.
func runTuneCmd(path, daemon, storeDir string, parallel int, verbose bool, log *slog.Logger, fatal func(string, ...any)) {
	raw, err := os.ReadFile(path)
	if err != nil {
		fatal("space open failed", "err", err)
	}
	sp, err := tune.ParseSpace(strings.NewReader(string(raw)))
	if err != nil {
		fatal("space parse failed", "err", err)
	}
	log.Info("tune starting", "name", sp.Name, "objective", sp.Objective,
		"space_size", sp.SpaceSize(), "planned_probes", sp.PlannedProbes(), "seed", sp.Seed)

	if daemon != "" {
		v, err := runTuneDaemon(sp, raw, daemon, verbose, log)
		if err != nil {
			fatal("tune failed", "err", err)
		}
		if v.State != serve.JobDone || v.Best == nil {
			fatal("tune did not finish", "state", v.State, "run_err", v.Error)
		}
		stats := tune.Stats{}
		if v.Stats != nil {
			stats = *v.Stats
		}
		printTuneTable(sp, v.Best.Config, v.Best.Score, stats, v.PlannedProbes)
		return
	}

	res, err := runTuneLocal(sp, storeDir, parallel, verbose, log)
	if err != nil {
		fatal("tune failed", "err", err)
	}
	printTuneTable(sp, res.Best.Config, res.Best.Score, res.Stats, res.PlannedProbes)
}
