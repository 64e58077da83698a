#!/usr/bin/env python3
"""Compare two sets of benchmark runs, metric by metric.

    python3 perf/compare.py A.json B.json
    python3 perf/compare.py runs_a/ runs_b/

Each side is one ``perf-seed<N>.json`` written by ``run.py`` or a
directory of them (one per run; the i-th files of the two sides form
pair i).  One row per (end-to-end metric, workload): both medians, the
ratio B/A with its base, the bound from ``BENCHMARK.json``, the spread,
and a verdict:

* ``regressed`` / ``improved`` — B is worse / better than A by more than
  the bound and by more than the spread;
* ``unresolved`` — the spread is wider than the bound, so a change of
  the size the bound guards against cannot be seen either way;
* ``unchanged`` — anything else.

The spread is the interquartile distance over the median, taken over
the runs of a side when it has several and over the trials inside the
single run otherwise; the wider side counts.  With several runs per
side the row also counts the pairs B won (ties count for neither).

Exit status 1 when any row regressed.

Claiming a gain takes more than one comparison: run at least ten pairs
of parent and change with the same benchmark code and ``--seconds``,
alternating which side runs first, keep each side's files in its own
directory, and claim only where B wins at least nine tenths of the
pairs *and* the verdict is ``improved`` (README.md, "A/B").
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return abs((q3 - q1) / mid) if mid else 0.0


def load(path: Path) -> list[dict]:
    files = sorted(path.glob("perf-seed*.json")) if path.is_dir() else [path]
    runs = [json.loads(f.read_text()) for f in files]
    if not runs or any(run.get("trace") for run in runs):
        raise SystemExit(f"{path}: need end-to-end runs (perf-seed<N>.json, "
                         "written without --trace)")
    return runs


def side_values(runs: list[dict], workload: str, metric: str
                ) -> tuple[list[float], float]:
    """Per-run values of one metric, and the side's spread."""
    values = [run["workloads"][workload]["metrics"][metric]["value"]
              for run in runs]
    if len(runs) > 1:
        return values, spread(values)
    trials = runs[0]["workloads"][workload]["detail"]["trials"]
    return values, spread(trials.get(metric, []))


def verdict(a: float, b: float, better: str, bound: float,
            noise: float) -> str:
    worse = (b - a) / a if better == "lower" else (a - b) / a
    if abs(worse) > max(bound, noise):
        return "regressed" if worse > 0 else "improved"
    return "unresolved" if noise > bound else "unchanged"


def compare(runs_a: list[dict], runs_b: list[dict]) -> list[dict]:
    bounds, better = runs_a[0]["bounds"], runs_a[0]["better"]
    shared = [w for w in runs_a[0]["workloads"]
              if all(w in run["workloads"] for run in runs_a + runs_b)]
    rows = []
    for workload in shared:
        for metric, bound in bounds.items():
            xs, noise_a = side_values(runs_a, workload, metric)
            ys, noise_b = side_values(runs_b, workload, metric)
            a, b = statistics.median(xs), statistics.median(ys)
            sign = 1 if better[metric] == "lower" else -1
            wins = sum(sign * (y - x) < 0 for x, y in zip(xs, ys))
            rows.append({
                "workload": workload, "metric": metric, "a": a, "b": b,
                "ratio": b / a, "bound": bound,
                "spread": max(noise_a, noise_b),
                "wins": (f"{wins}/{min(len(xs), len(ys))}"
                         if min(len(xs), len(ys)) > 1 else "-"),
                "verdict": verdict(a, b, better[metric], bound,
                                   max(noise_a, noise_b))})
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    rows = compare(load(Path(argv[0])), load(Path(argv[1])))
    print(f"{'workload':14s} {'metric':14s} {'A':>12s} {'B':>12s} "
          f"{'B/A (base A)':>22s} {'bound':>6s} {'spread':>7s} "
          f"{'B wins':>6s}  verdict")
    for r in rows:
        print(f"{r['workload']:14s} {r['metric']:14s} {r['a']:12.5g} "
              f"{r['b']:12.5g} {r['ratio']:8.3f} (A={r['a']:<10.5g}) "
              f"{r['bound']:6.0%} {r['spread']:7.1%} {r['wins']:>6s}  "
              f"{r['verdict']}")
    counts = {v: sum(r["verdict"] == v for r in rows)
              for v in ("improved", "unchanged", "regressed", "unresolved")}
    print("# " + ", ".join(f"{n} {v}" for v, n in counts.items()))
    return 1 if counts["regressed"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
