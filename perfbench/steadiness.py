"""Steadiness command: do two sets of runs of the same code agree?

Runs every workload in two sets of fresh processes (``--runs`` per set, each
run with its own seed), then prints, for each end-to-end metric, each set's
median and quartiles, the quartile spread as a share of the median, and the
metric's bound from ``BENCHMARK.json``.  Runs last ``run_seconds``.  Exits 1
when a spread exceeds its bound, when the two sets' medians differ by more
than the bound (in either direction), when the failed share differs between
the sets, or when a run is incorrect or exits non-zero.

``setup_s`` is held to the median shift but not to the spread: it is the
median of seven half-second set-ups, too few and too long to escape the
host's drift the way the fastest repetition of an operation repeated
hundreds of times does, so its spread across runs follows the host.

    python3 perfbench/steadiness.py --runs 5
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("perfbench", "run.py")


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_once(workload: str, seed: int, seconds: int) -> tuple:
    """(result, wall seconds) of one run in a fresh process."""
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}"
        )
    return json.loads(lines[-1]), time.perf_counter() - started


def spread(values: list) -> tuple:
    """(median, q1, q3, (q3 - q1) / median)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``
    (negative when it is better)."""
    change = (second - first) / first if first else float("inf")
    return change if better == "lower" else -change


def main(argv=None) -> int:
    bench = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5, help="runs per set")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        sets = []
        for s in range(2):
            results = []
            for i in range(args.runs):
                seed = 1 + s * args.runs + i
                result, wall = run_once(workload, seed, bench["run_seconds"])
                print(f"# {workload} set {s + 1} seed {seed} ({wall:.0f} s): "
                      + json.dumps({k: round(v["value"], 4)
                                    for k, v in result["metrics"].items()}),
                      flush=True)
                if not result["correct"]:
                    print(f"! {workload} seed {seed}: incorrect output")
                    ok = False
                results.append(result)
            sets.append(results)

        shares = [
            sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs) for rs in sets
        ]
        print(f"\n{workload}: failed share {shares[0]:.4f} / {shares[1]:.4f}")
        if shares[0] != shares[1]:
            ok = False
        print(f"{'metric':16} {'set 1 median [q1, q3]':>32} {'set 2 median [q1, q3]':>32}"
              f" {'spread 1':>9} {'spread 2':>9} {'pooled':>7} {'shift':>7} {'bound':>6}")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [[r["metrics"][name]["value"] for r in rs] for rs in sets]
            (m1, a1, b1, s1), (m2, a2, b2, s2) = spread(values[0]), spread(values[1])
            pooled = spread(values[0] + values[1])[3]
            shift = worse_by(m1, m2, metric["better"])
            verdict = "ok"
            if name != "setup_s" and max(s1, s2) > bound:
                verdict = "SPREAD"
            if abs(shift) > bound:
                verdict = "SHIFT"
            ok = ok and verdict == "ok"
            print(f"{name:16} {m1:12.4f} [{a1:8.4f}, {b1:8.4f}] {m2:12.4f} "
                  f"[{a2:8.4f}, {b2:8.4f}] {s1:9.3f} {s2:9.3f} {pooled:7.3f} "
                  f"{shift:+7.3f} {bound:6.2f} {verdict}")
        print(flush=True)
    print("steady" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
