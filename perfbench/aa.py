#!/usr/bin/env python3
"""A/A steadiness check for the sclogd benchmark.

Runs one build's workloads as two interleaved sets of runs (A and B),
each run with its own seed, and prints for every (metric, workload)
pair the median and quartiles of each set, the spread (IQR / median)
and the set-to-set ratio of medians, judged against the bounds in
BENCHMARK.json. Identical code, so every difference is noise.

Usage, from the repository root:

    python3 perfbench/aa.py [--runs N] [--seconds S] [--workloads a,b]
                            [--trace 0|1] [--json FILE]

Builds once with `cargo build --release --offline`, honouring
CARGO_TARGET_DIR, then runs the binary directly. Runs alternate which
set goes first (A B, B A, A B, ...) so a slow spell of the host lands
on both sets.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")


def build():
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        cwd=ROOT,
        check=True,
    )
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, "perfbench", "target"))
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "release", "perfbench")


def run(binary, workload, seed, seconds, trace):
    t = time.time()
    p = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {p.returncode}\n{p.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        print(f"  warning: {workload} seed {seed}: correct={result['correct']} failed={result['failed']}", file=sys.stderr)
    return result, time.time() - t


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3, (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per set (default 10)")
    ap.add_argument("--seconds", type=int, default=None, help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--workloads", default=None, help="comma-separated (default: all in BENCHMARK.json)")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--json", default=None, help="also write every run's metrics here")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]} if args.trace == 0 else {}
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}

    binary = build()
    values = {}  # (workload, set, metric) -> [values]
    log = []
    for w in workloads:
        for i in range(args.runs):
            order = ("A", "B") if i % 2 == 0 else ("B", "A")
            for s in order:
                seed = (1 if s == "A" else 1001) + i
                result, elapsed = run(binary, w, seed, seconds, args.trace)
                log.append({"workload": w, "set": s, "seed": seed, "elapsed_s": elapsed, "result": result})
                for name, m in result["metrics"].items():
                    values.setdefault((w, s, name), []).append(m["value"])
                print(f"  {w} set {s} seed {seed}: {elapsed:.1f}s", file=sys.stderr)

    ok = True
    print(f"{'workload':8s} {'metric':34s} {'A q1':>11s} {'A med':>11s} {'A q3':>11s} {'A iqr':>6s} "
          f"{'B med':>11s} {'B iqr':>6s} {'B/A':>6s} {'bound':>6s}  verdict")
    for w in workloads:
        names = sorted({n for (ww, _, n) in values if ww == w})
        for n in names:
            a, b = values[(w, "A", n)], values[(w, "B", n)]
            aq1, amed, aq3, aiqr = spread(a)
            _, bmed, _, biqr = spread(b)
            ratio = bmed / amed if amed else float("nan")
            bound = bounds.get(n)
            verdict = ""
            if bound is not None:
                worse = ratio - 1 if better.get(n) == "lower" else 1 - ratio
                notes = []
                if n != "setup_s" and max(aiqr, biqr) > bound:
                    notes.append("SPREAD>BOUND")
                elif n != "setup_s" and max(aiqr, biqr) > bound / 3:
                    notes.append("spread>bound/3")
                if worse > bound:
                    notes.append("DRIFT>BOUND")
                verdict = ",".join(notes) or "ok"
                ok &= "BOUND" not in verdict
            print(f"{w:8s} {n:34s} {aq1:11.4g} {amed:11.4g} {aq3:11.4g} {aiqr*100:5.1f}% "
                  f"{bmed:11.4g} {biqr*100:5.1f}% {ratio:6.3f} {bound if bound is not None else '-':>6}  {verdict}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(log, f)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
