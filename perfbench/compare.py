#!/usr/bin/env python3
"""Collect and compare result sets of the end-to-end benchmark.

A result set is a JSONL file with one benchmark "record" line per run (the
line perfbench/run.py prints before its result line).

    # ten untraced runs per workload, seeds 1..10, plus one traced run each
    python3 perfbench/compare.py collect --out base.jsonl --seeds 1-10 --traced 1

    # the same on the change, then compare against the bounds
    python3 perfbench/compare.py collect --out new.jsonl --seeds 1-10
    python3 perfbench/compare.py compare base.jsonl new.jsonl

For every workload and end-to-end metric, `compare` prints each side's
median and quartiles, the spread (interquartile distance over the median)
and a verdict against the metric's bound in BENCHMARK.json:

    ok          the new median is no worse than the base by more than the bound
    REGRESSED   it is worse by more than the bound
    improved    better in at least 9 of 10 pairs (runs paired by seed), by
                more than the base spread; needs ten runs a side
    unresolved  a side's spread exceeds the bound, so the data cannot tell
                (unless every new run beats every base run: then "improved")

Traced records are summarised as per-layer medians. Exits 1 when a metric
regressed or a record failed its correctness gates.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def collect(args):
    spec = load_spec()
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    plan = [(w, s, 0) for w in names for s in parse_seeds(args.seeds)]
    plan += [(w, parse_seeds(args.seeds)[0], 1)
             for w in names for _ in range(args.traced)]
    with open(args.out, "a") as out:
        for workload, seed, trace in plan:
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True)
            lines = proc.stdout.strip().splitlines()
            if len(lines) < 2:
                print(f"{workload} seed {seed}: no record (exit "
                      f"{proc.returncode})", file=sys.stderr)
                continue
            record = json.loads(lines[-2])
            record["result"] = json.loads(lines[-1])
            out.write(json.dumps(record) + "\n")
            out.flush()
            print(f"{workload} seed {seed} trace {trace}: "
                  f"correct={record['result']['correct']}", file=sys.stderr)


def load_set(path):
    runs = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                runs.append(json.loads(line))
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def verdict(base, new, better, bound):
    """base/new map seed -> value. A gain needs at least ten runs a side."""
    b, n = list(base.values()), list(new.values())
    mb, mn = statistics.median(b), statistics.median(n)
    sign = 1 if better == "lower" else -1
    worse = sign * (mn - mb) / mb if mb else 0.0
    beats = (lambda x, y: x < y) if better == "lower" else (lambda x, y: x > y)
    enough = min(len(b), len(n)) >= 10
    if enough and all(beats(x, y) for x in n for y in b):
        return "improved", worse
    if spread(b) > bound or spread(n) > bound:
        return "unresolved", worse
    if worse > bound:
        return "REGRESSED", worse
    pairs = [(base[k], new[k]) for k in base if k in new]
    wins = sum(1 for x, y in pairs if beats(y, x))
    if enough and len(pairs) >= 10 and wins >= 0.9 * len(pairs) \
            and -worse > spread(b):
        return "improved", worse
    return "ok", worse


def by_workload(runs, trace):
    out = {}
    for run in runs:
        rec = run["record"]
        if rec["trace"] == trace:
            out.setdefault(rec["workload"], []).append(rec)
    return out


def compare(args):
    spec = load_spec()
    base_runs, new_runs = load_set(args.base), load_set(args.new)
    status = 0
    for run in base_runs + new_runs:
        if not run.get("result", {}).get("correct", True):
            rec = run["record"]
            print(f"FAILED gates: {rec['workload']} seed {rec['seed']}: "
                  f"{rec['gates']}")
            status = 1
    base, new = by_workload(base_runs, 0), by_workload(new_runs, 0)
    header = (f"{'metric':20s} {'base q1/med/q3':>36s} {'spread':>7s}  "
              f"{'new q1/med/q3':>36s} {'spread':>7s} {'worse':>7s} "
              f"{'bound':>6s}  verdict")
    for w in spec["workloads"]:
        name = w["name"]
        if name not in base or name not in new:
            print(f"\n## {name}: missing from a result set")
            continue
        seeds = sorted({r["seed"] for r in base[name]})
        print(f"\n## {name}  (base n={len(base[name])}, new "
              f"n={len(new[name])}, seeds {seeds[0]}..{seeds[-1]})")
        print(header)
        for m in spec["end_to_end"]:
            key = m["name"]
            b = {r["seed"]: r["end_to_end"][key]["value"] for r in base[name]}
            n = {r["seed"]: r["end_to_end"][key]["value"] for r in new[name]}
            v, worse = verdict(b, n, m["better"], m["bound"])
            if v == "REGRESSED":
                status = 1
            fmt = lambda xs: "/".join(f"{x:.4g}" for x in quartiles(xs))
            b, n = list(b.values()), list(n.values())
            print(f"{key:20s} {fmt(b):>36s} {spread(b):7.3f}  {fmt(n):>36s} "
                  f"{spread(n):7.3f} {worse:+7.3f} {m['bound']:6.2f}  {v}")
    traced = by_workload(base_runs, 1), by_workload(new_runs, 1)
    if traced[0] or traced[1]:
        print("\n## per-layer medians (traced runs)")
        for w in spec["workloads"]:
            name = w["name"]
            sides = [t.get(name, []) for t in traced]
            if not any(sides):
                continue
            print(f"\n### {name}")
            for m in spec["per_layer"]:
                cols = []
                for recs in sides:
                    vals = [r["per_layer"][m["name"]]["value"] for r in recs]
                    cols.append(f"{statistics.median(vals):.5g}" if vals
                                else "-")
                print(f"{m['name']:28s} {cols[0]:>14s} {cols[1]:>14s} "
                      f"{m['unit']}")
    return status


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter, epilog=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect", help="run the benchmark into a result set")
    c.add_argument("--out", required=True)
    c.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,7,9")
    c.add_argument("--traced", type=int, default=0,
                   help="traced runs per workload (first seed)")
    c.add_argument("--workloads", nargs="*")
    d = sub.add_parser("compare", help="compare two result sets")
    d.add_argument("base")
    d.add_argument("new")
    args = ap.parse_args()
    if args.cmd == "collect":
        collect(args)
        return 0
    return compare(args)


if __name__ == "__main__":
    sys.exit(main())
