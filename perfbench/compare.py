#!/usr/bin/env python3
"""Collect benchmark runs, check their spread, and compare two sets.

Run from the repository root:

  # ten seeds of every workload into runs/base (end-to-end mode)
  python3 perfbench/compare.py collect runs/base --seeds 1-10
  # the run-to-run spread of each end-to-end metric against its bound
  python3 perfbench/compare.py spread runs/base
  # parent and change checkouts, alternating which side runs first
  python3 perfbench/compare.py pairs PARENT_ROOT CHANGE_ROOT runs/pair --seeds 11-20
  # per workload and metric: medians, quartiles, pair wins, verdict
  python3 perfbench/compare.py compare runs/pair/parent runs/pair/change

Every run lasts BENCHMARK.json's run_seconds. Each run's standard output
is saved as <workload>.t<trace>.s<seed>.txt.
The verdict rules are those of the choosing-metrics method: a gain is
claimed only when the change wins at least nine tenths of the seed-paired
runs (ties count for neither), the medians differ in its favour by more
than the parent's interquartile range, and no more operations failed
than at the parent; otherwise a metric is "no worse within
bound" when its median worsened by at most the bound in BENCHMARK.json,
and "unresolved" when the parent's own spread is wider than that bound
(unless every change run beats every parent run). Digests and the grid's
calibration count must match exactly, and no change run may print no
result, report correct=false or fail more checks than its paired parent
run; compare exits 1 when either exact check fails.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_spec():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        return json.load(f)


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_one(root, workload, seed, trace, seconds, out_path):
    cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    res = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    with open(out_path, "w") as f:
        f.write(res.stdout)
    status = "ok" if res.returncode == 0 else "exit %d" % res.returncode
    print("%-22s seed %-4s trace %d  %s" % (workload, seed, trace, status), flush=True)


def collect(args):
    spec = load_spec()
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    os.makedirs(args.out, exist_ok=True)
    for w in workloads:
        for s in seeds_of(args.seeds):
            run_one(os.getcwd(), w, s, args.trace, spec["run_seconds"],
                    os.path.join(args.out, "%s.t%d.s%d.txt" % (w, args.trace, s)))


def pairs(args):
    spec = load_spec()
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    sides = {"parent": args.parent_root, "change": args.change_root}
    for side in sides:
        os.makedirs(os.path.join(args.out, side), exist_ok=True)
    for w in workloads:
        for i, s in enumerate(seeds_of(args.seeds)):
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for side in order:
                run_one(sides[side], w, s, args.trace, spec["run_seconds"],
                        os.path.join(args.out, side, "%s.t%d.s%d.txt" % (w, args.trace, s)))


def parse_dir(path):
    """Returns {(workload, trace): {seed: run}} with run = dict(result, exact)."""
    runs = {}
    for name in sorted(os.listdir(path)):
        m = re.match(r"(.+)\.t(\d)\.s(\d+)\.txt$", name)
        if not m:
            continue
        with open(os.path.join(path, name)) as f:
            lines = f.read().splitlines()
        result = None
        if lines and lines[-1].startswith("{"):
            result = json.loads(lines[-1])
        exact = [l for l in lines if l.startswith("# digest") or l.startswith("# calib_violations")]
        runs.setdefault((m.group(1), int(m.group(2))), {})[int(m.group(3))] = {
            "result": result, "exact": exact}
    return runs


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else float("nan")
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def failed(run):
    """Failed operations of one run; a run with no result counts as one."""
    return run["result"]["failed"] if run["result"] else 1


def check_failures(p, c, seeds):
    """Seed pairs whose change run printed no result, reported
    correct=false, or failed more checks than the parent run."""
    bad = []
    for s in seeds:
        r = c[s]["result"]
        if r is None or not r["correct"] or failed(c[s]) > failed(p[s]):
            got = "no result" if r is None else "correct=%s, %d of %d checks failed" % (
                r["correct"], r["failed"], r["attempted"])
            bad.append("seed %d: change %s; parent %d failed" % (s, got, failed(p[s])))
    return bad


def metric_specs(spec, trace):
    return spec["per_layer"] if trace else spec["end_to_end"]


def spread(args):
    spec = load_spec()
    for (w, trace), by_seed in sorted(parse_dir(args.dir).items()):
        bad = [s for s, r in by_seed.items() if not r["result"] or not r["result"]["correct"]]
        print("== %s (trace %d): %d runs, %d failed or incorrect %s" % (w, trace, len(by_seed), len(bad), bad))
        for ms in metric_specs(spec, trace):
            vals = [r["result"]["metrics"][ms["name"]]["value"] for r in by_seed.values()
                    if r["result"] and ms["name"] in r["result"]["metrics"]]
            if not vals:
                print("  %-32s MISSING" % ms["name"])
                continue
            q1, med, q3 = quartiles(vals)
            rel = (q3 - q1) / med if med else float("inf")
            bound = ms.get("bound")
            flag = ""
            if bound is not None:
                flag = "ok" if rel <= bound / 3 else ("within bound" if rel <= bound else "WIDE")
            print("  %-32s median %-12.6g q1 %-12.6g q3 %-12.6g spread %6.2f%% %s %s" % (
                ms["name"], med, q1, q3, 100 * rel, ("bound %.1f%%" % (100 * bound)) if bound else "", flag))
        exact = sorted({tuple(r["exact"]) for r in by_seed.values()})
        for e in exact[:3]:
            print("  exact:", " | ".join(e))


def compare(args):
    spec = load_spec()
    parent, change = parse_dir(args.parent), parse_dir(args.change)
    ok = True
    for key in sorted(set(parent) | set(change)):
        w, trace = key
        p, c = parent.get(key, {}), change.get(key, {})
        seeds = sorted(set(p) & set(c))
        print("== %s (trace %d): %d seed pairs" % (w, trace, len(seeds)))
        bad = check_failures(p, c, seeds)
        for ms in metric_specs(spec, trace):
            name, higher = ms["name"], ms["better"] == "higher"
            value = lambda side, s: side[s]["result"]["metrics"][name]["value"] if side[s]["result"] else None
            pv = [value(p, s) for s in seeds if value(p, s) is not None]
            cv = [value(c, s) for s in seeds if value(c, s) is not None]
            if not pv or not cv:
                print("  %-32s missing" % name)
                continue
            pq1, pmed, pq3 = quartiles(pv)
            cq1, cmed, cq3 = quartiles(cv)
            wins = ties = 0
            for s in seeds:
                a, b = value(p, s), value(c, s)
                if a == b:
                    ties += 1
                elif b is not None and (a is None or (b > a) == higher):
                    wins += 1  # a run that printed no result loses its pair
            frac = wins / len(seeds)
            worse = ((pmed - cmed) if higher else (cmed - pmed)) / pmed if pmed else 0.0
            pspread = (pq3 - pq1) / pmed if pmed else 0.0
            all_better = (min(cv) > max(pv)) if higher else (max(cv) < min(pv))
            bound = ms.get("bound")
            gained = (cmed - pmed) if higher else (pmed - cmed)
            if frac >= 0.9 and gained > (pq3 - pq1) and not bad:
                verdict = "improved"
            elif bound is None:
                verdict = "no claim"
            elif pspread > bound and not all_better:
                verdict = "unresolved (parent spread %.1f%% > bound %.1f%%)" % (100 * pspread, 100 * bound)
            elif worse <= bound:
                verdict = "no worse within bound"
            else:
                verdict = "worse by %.1f%% (bound %.1f%%)" % (100 * worse, 100 * bound)
            unit = ms["unit"]
            print("  %-32s parent %.6g [%.6g, %.6g] %s | change %.6g [%.6g, %.6g] | change/parent %.4f (base: parent median %.6g %s) | wins %d/%d ties %d | %s" % (
                name, pmed, pq1, pq3, unit, cmed, cq1, cq3, cmed / pmed if pmed else float("nan"),
                pmed, unit, wins, len(seeds), ties, verdict))
        print("  output checks: %s" % ("FAILED" if bad else "no change run failed more than its parent"))
        for b in bad:
            print("    " + b)
        same = all(p[s]["exact"] == c[s]["exact"] for s in seeds)
        print("  exact digests and calibration: %s" % ("identical" if same else "DIFFERENT"))
        if not same:
            for s in seeds:
                if p[s]["exact"] != c[s]["exact"]:
                    print("    seed %d parent %s" % (s, p[s]["exact"]))
                    print("    seed %d change %s" % (s, c[s]["exact"]))
        ok = ok and same and not bad
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    for name in ("collect", "pairs"):
        sp = sub.add_parser(name)
        if name == "pairs":
            sp.add_argument("parent_root")
            sp.add_argument("change_root")
        sp.add_argument("out")
        sp.add_argument("--seeds", default="1-10")
        sp.add_argument("--workloads", default="")
        sp.add_argument("--trace", type=int, default=0)
    sp = sub.add_parser("spread")
    sp.add_argument("dir")
    sp = sub.add_parser("compare")
    sp.add_argument("parent")
    sp.add_argument("change")
    args = ap.parse_args()
    return {"collect": collect, "pairs": pairs, "spread": spread, "compare": compare}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
