#!/usr/bin/env python3
"""Alternate gmbench runs of two checkouts and compare their end-to-end metrics.

    python3 scripts/ab.py <parent-tree> <change-tree> --workload W[,W...] [--seed S[,S...]]
                          [--pairs N] [--claim METRIC:WORKLOAD ...]

Each tree runs its own `bash scripts/e2e/run.sh --workload W --seed S`, from
its own root and into its own build directory (`CARGO_TARGET_DIR` is unset
for the runs). The parent runs first in odd pairs and the change first in
even ones, so neither side always gets the warmer host. With several
workloads or seeds (comma-separated), each pair runs every workload at
every seed in turn, so they alternate too and share the host's drift: one
session measures a claim at its seed and at a held-out one. Every run's
final JSON line is printed as it lands, tagged with its workload, seed,
pair and side.

Then, per workload and seed, a markdown table with, for every end-to-end metric of
`BENCHMARK.json`, one row:
each side's median and quartiles, the pairs the change won (strictly
better in the metric's direction), the median ratio change/parent, whether
the median gap exceeds the parent's interquartile range, and the verdict
against the metric's bound: `worse` when the change's median is worse than
the parent's by more than the bound, `better` when it is better by more,
else `within`. Any run with `correct: false` or `failed > 0` is flagged
and makes the exit status 1.

`--claim METRIC:WORKLOAD` (repeatable) names a gain the change claims and
prints, after the tables, whether it passes at each seed the rule of the
choosing-metrics guide (§8): the change wins at least nine tenths of the
pairs (ties count for neither side), and the gap between the medians, in
the metric's better direction, exceeds the parent's interquartile range. A
claim that fails at any seed makes the exit status 1.

The script reads `BENCHMARK.json` and runs `scripts/e2e/run.sh` of each
tree; it writes nothing into either tree beyond what run.sh itself writes.
Expect ~40 s a run (two runs a pair and workload); run nothing else
meanwhile.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(tree, workload, seed, env):
    proc = subprocess.run(
        ["bash", "scripts/e2e/run.sh", "--workload", workload, "--seed", str(seed)],
        cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        sys.exit(f"ab: run.sh failed in {tree} (exit {proc.returncode})")
    return lines[-1], json.loads(lines[-1])


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare(runs, metric):
    """One metric over one workload's pairs: each side's quartiles, the
    pairs the change won, and how far its median moved in the better
    direction."""
    name, lower = metric["name"], metric["better"] == "lower"
    p = [r["metrics"][name]["value"] for r in runs["parent"]]
    c = [r["metrics"][name]["value"] for r in runs["change"]]
    wins = sum((y < x) if lower else (y > x) for x, y in zip(p, c))
    parent, change = quartiles(p), quartiles(c)
    moved = (parent[1] - change[1]) if lower else (change[1] - parent[1])
    return parent, change, wins, len(p), moved


def table(workload, seed, runs, spec):
    """Print the per-metric markdown table of one workload's runs."""
    pairs = len(runs["parent"])
    print(f"\n{workload}, seed {seed}, {pairs} pairs "
          "(median [q1, q3]; wins = pairs where the change is strictly better)\n")
    print("| metric | parent | change | wins | ratio | gap > parent IQR | bound | verdict |")
    print("|---|---|---|---|---|---|---|---|")
    for metric in spec["end_to_end"]:
        (pq1, pm, pq3), (cq1, cm, cq3), wins, n, moved = compare(runs, metric)
        ratio = cm / pm if pm else float("nan")
        gap = "yes" if moved > pq3 - pq1 else "no"
        bound = metric["bound"]
        if moved < -bound * abs(pm):
            verdict = "worse"
        elif moved > bound * abs(pm):
            verdict = "better"
        else:
            verdict = "within"
        print(f"| `{metric['name']}` | {pm:.4g} [{pq1:.4g}, {pq3:.4g}] | {cm:.4g} [{cq1:.4g}, {cq3:.4g}] "
              f"| {wins}/{n} | ×{ratio:.3f} | {gap} | {bound:g} | {verdict} |")


def claim(name, workload, seed, runs, metric):
    """Print whether the claimed gain passes the 9-of-10 and IQR rule; True
    if it does."""
    (pq1, pm, pq3), (_, cm, _), wins, n, moved = compare(runs, metric)
    won = 10 * wins >= 9 * n
    past = moved > pq3 - pq1
    verdict = "passes" if won and past else "fails"
    print(f"claim `{name}` on {workload}, seed {seed}: {verdict} — wins {wins}/{n} (needs ≥ 9/10: "
          f"{'yes' if won else 'no'}); median {pm:.4g} → {cm:.4g}, gap {moved:.4g} in the better "
          f"direction vs parent IQR {pq3 - pq1:.4g} ({'past' if past else 'not past'} it)")
    return won and past


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True, help="one workload or a comma-separated list")
    ap.add_argument("--seed", default="7", help="one seed or a comma-separated list")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--claim", action="append", default=[], metavar="METRIC:WORKLOAD",
                    help="a claimed gain to check against the 9-of-10 and IQR rule")
    args = ap.parse_args()

    trees = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    workloads = [w for w in args.workload.split(",") if w]
    try:
        seeds = [int(s) for s in args.seed.split(",") if s]
    except ValueError:
        sys.exit(f"ab: --seed {args.seed}: seeds are integers")
    if not seeds:
        sys.exit("ab: --seed names no seed")
    known = {w["name"] for w in spec["workloads"]}
    for workload in workloads:
        if workload not in known:
            sys.exit(f"ab: {workload} is not a workload of BENCHMARK.json")
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    claims = []
    for text in args.claim:
        name, _, workload = text.partition(":")
        if name not in metrics:
            sys.exit(f"ab: claim {text}: {name} is not an end-to-end metric of BENCHMARK.json")
        if workload not in workloads:
            sys.exit(f"ab: claim {text}: {workload} is not among --workload {args.workload}")
        claims.append((name, workload))
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}

    cells = [(w, s) for w in workloads for s in seeds]
    runs = {cell: {"parent": [], "change": []} for cell in cells}
    flagged = []
    for pair in range(1, args.pairs + 1):
        order = ["parent", "change"] if pair % 2 == 1 else ["change", "parent"]
        for workload, seed in cells:
            for side in order:
                line, result = run_once(trees[side], workload, seed, env)
                print(f"{workload} seed {seed} pair {pair} {side}: {line}", flush=True)
                runs[workload, seed][side].append(result)
                if not result.get("correct") or result.get("failed", 0) > 0:
                    flagged.append(f"{workload} seed {seed} pair {pair} {side}: "
                                   f"correct={result.get('correct')} failed={result.get('failed')}")

    for workload, seed in cells:
        table(workload, seed, runs[workload, seed], spec)
    if claims:
        print()
    passed = [claim(name, w, s, runs[w, s], metrics[name]) for name, w in claims for s in seeds]
    if flagged:
        print("\nflagged runs:\n" + "\n".join(flagged))
        sys.exit(1)
    print("\nevery run: correct, 0 failed")
    if not all(passed):
        sys.exit(1)


if __name__ == "__main__":
    main()
