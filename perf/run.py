#!/usr/bin/env python3
"""The repo's benchmark: one command, every metric by name.

    python3 perf/run.py                       # all workloads, end to end
    python3 perf/run.py --trace               # all workloads, per layer
    python3 perf/run.py --workload call_seq   # one workload
    python3 perf/run.py --quick               # 0.2 s trials (smoke)

With ``--workload`` the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` holding every
``end_to_end`` metric of ``BENCHMARK.json`` (``--trace 0``) or every
``per_layer`` metric (``--trace 1``).  Exit status: 0 clean, 1 a wrong
output or something left behind, 2 cannot run here (no ``src/``, cpu
affinity refused).  See README.md for the catalogue and the rules.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro").is_dir():
    print(f"perf/run.py: {ROOT / 'src' / 'repro'} not found; the benchmark "
          "runs the program from a checkout of the repo", file=sys.stderr)
    sys.exit(2)
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perf import harness, layers  # noqa: E402 - needs the path above
from perf.workloads import WORKLOADS, PAGE_BYTES  # noqa: E402
from repro.transport import shm  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: a ``--trace 1`` run makes two short passes (tracing off, then on).
TRACE_SHARE = 0.3
QUICK_SECONDS = 1.0


def _metric_defs(kind: str) -> dict[str, dict]:
    return {m["name"]: m for m in SPEC[kind]}


def _main(trials: list) -> list:
    """The trials the end-to-end metrics come from (a per-layer run may
    have added stress trials under another label)."""
    return [t for t in trials if t.label == "main"]


def _ms(seconds: float) -> float:
    return seconds * 1e3


# ---------------------------------------------------------------------------
# Reducing a pass to metrics
# ---------------------------------------------------------------------------


def end_to_end(workload, done: harness.Pass) -> tuple[dict, dict]:
    """``(values, per-trial values)`` of the end-to-end metrics."""
    main = _main(done.trials)
    pooled = [s for t in main for s in t.samples]
    per_trial = {
        "op_p50_ms": [_ms(harness.percentile(t.samples, 50)) for t in main],
        "op_tail_ms": [_ms(harness.percentile(t.samples, workload.tail_pct))
                       for t in main],
        "ops_per_s": [t.ops / t.wall_s for t in main],
        "cpu_us_per_op": [(t.cpu_driver_s + t.cpu_machine_s) / t.ops * 1e6
                          for t in main],
        "setup_s": done.setup_s,
        "peak_rss_mb": [done.peak_rss_mb],
    }
    values = {name: statistics.median(xs) for name, xs in per_trial.items()}
    # The tail is taken over the pooled samples of all trials: a single
    # trial of the slow workloads has too few samples beyond it.
    values["op_tail_ms"] = _ms(harness.percentile(pooled, workload.tail_pct))
    return values, per_trial


def per_layer(workload, inputs, plain: harness.Pass, traced: harness.Pass,
              rec: layers.Recorder) -> dict:
    """Per-layer values; names missing here are layers the workload
    never drives (the caller fills them with 0)."""
    sample = workload.sample(inputs)
    main = _main(plain.trials)
    values = dict(plain.counters)
    values.update(layers.replay(sample, rec))
    values.update(layers.futures(rec))
    values.update(layers.bulk(rec))
    values.update(layers.backends(sample, rec))
    values.update(layers.reduce_spans(traced.spans))

    ops = sum(t.ops for t in main)
    values["mp.spawn_s"] = statistics.median(plain.spawn_s)
    values["mp.shutdown_s"] = statistics.median(plain.shutdown_s)
    values["mp.cpu_driver_us_per_call"] = (
        sum(t.cpu_driver_s for t in main) / ops * 1e6)
    values["mp.cpu_machine_us_per_call"] = (
        sum(t.cpu_machine_s for t in main) / ops * 1e6)

    p50 = end_to_end(workload, plain)[0]["op_p50_ms"]
    values["trace.overhead_pct"] = (
        end_to_end(workload, traced)[0]["op_p50_ms"] / p50 - 1.0) * 100.0
    if workload.budget:
        values.update(layers.budget(values, p50 * 1e3))

    puts = [s for t in main for s in t.extra.get("put", ())]
    if puts:
        gets = [s for t in main for s in t.extra["get"]]
        values["xfer.put_p50_ms"] = _ms(harness.percentile(puts, 50))
        values["xfer.get_p50_ms"] = _ms(harness.percentile(gets, 50))
        values["xfer.goodput_MBps"] = statistics.median(
            t.ops * PAGE_BYTES / 1e6 / t.wall_s for t in main)
    late = [s for t in plain.trials for s in t.extra.get("late", ())]
    if late:
        values["gen.late_p99_us"] = harness.percentile(late, 99) * 1e6
        values["serve.backlog_end"] = sum(t.extra["backlog"]
                                          for t in plain.trials)
    hi = [s for t in plain.trials if t.label == "hi" for s in t.samples]
    if hi:
        values["serve.hi_p50_ms"] = _ms(harness.percentile(hi, 50))
        values["serve.hi_p99_ms"] = _ms(harness.percentile(hi, 99))
    moves = [s for t in main for s in t.extra.get("migrate", ())]
    if moves:
        values["migrate.p50_ms"] = _ms(harness.percentile(moves, 50))
    return values


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------


def measure_end_to_end(workload, seed: int, seconds: float,
                       allowed: list[int]) -> tuple[list, dict, dict]:
    """``(passes, values, detail)`` of a ``--trace 0`` run."""
    inputs = workload.inputs(seed, seconds)
    done = harness.run_pass(workload, inputs, seconds, allowed)
    values, per_trial = end_to_end(workload, done)
    pooled = [s for t in done.trials for s in t.samples]
    return [done], values, {
        "trials": per_trial,
        "samples": {"timed": len(pooled),
                    "beyond_tail": harness.beyond(pooled, workload.tail_pct)}}


def measure_per_layer(workload, seed: int, seconds: float,
                      allowed: list[int], out_dir: Path
                      ) -> tuple[list, dict, dict]:
    """``(passes, values, detail)`` of a ``--trace 1`` run: a pass with
    tracing off and the counters read around it, a pass with tracing on,
    then the replays."""
    short = TRACE_SHARE * seconds
    inputs = workload.inputs(seed, short, stress=True)
    rec = layers.Recorder(request=f"{workload.name}/seed{seed}")

    def probe(cluster, state, before: dict, after: dict, calls: int) -> dict:
        out = layers.counter_metrics(before, after, calls)
        out.update(workload.read_counters(cluster, state, inputs))
        out.update(layers.issue(cluster, workload.sample(inputs), rec))
        return out

    passes = [harness.run_pass(workload, inputs, short, allowed,
                               stress=True, probe=probe),
              harness.run_pass(workload, inputs, short, allowed,
                               stress=True, traced=True)]
    values = per_layer(workload, inputs, *passes, rec)
    trace_file = out_dir / f"trace-{workload.name}.jsonl"
    with trace_file.open("w") as f:
        for span in rec.spans:
            f.write(json.dumps(span) + "\n")
    return passes, values, {"span_file": str(trace_file)}


def run_one(name: str, seed: int, seconds: float, trace: bool,
            out_dir: Path) -> int:
    workload = WORKLOADS[name]
    shm_before = set(shm.host_shm_names())
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        allowed = harness.pin_driver()
        if trace:
            passes, values, detail = measure_per_layer(
                workload, seed, seconds, allowed, out_dir)
        else:
            passes, values, detail = measure_end_to_end(
                workload, seed, seconds, allowed)
    except harness.PinningError as exc:
        print(f"perf/run.py: {exc}", file=sys.stderr)
        return 2

    # Segments the program's own exit path left in /dev/shm are counted
    # (shm.live_segments_end) and removed, but do not fail the run: the
    # seed leaks one now and then on fft_peer (README.md, "Findings").
    leaked = sorted(set(shm.host_shm_names()) - shm_before)
    for segment in leaked:
        os.unlink(os.path.join("/dev/shm", segment))
    defs = _metric_defs("per_layer" if trace else "end_to_end")
    if trace:
        values["shm.live_segments_end"] = len(leaked)
        # A layer this workload never drives reports 0.
        values = {**dict.fromkeys(defs, 0.0), **values}
        detail["self_time"] = layers.self_times(values)
    if set(values) != set(defs):
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"{sorted(set(values) ^ set(defs))}")

    problems = [p for done in passes for p in done.problems]
    attempted = sum(t.attempted for d in passes for t in d.trials)
    failed = sum(t.failed for d in passes for t in d.trials)
    for done in passes:
        attempted += done.end_checks
        failed += done.end_failed
    correct = failed == 0 and not problems
    metrics = {n: {"value": float(values[n]), "unit": defs[n]["unit"]}
               for n in defs}
    placement = harness.placement_record(allowed, passes[0].placement)
    detail.update(workload=name, seed=seed, seconds=seconds,
                  trace=int(trace), why=workload.why,
                  timed_unit=workload.timed_unit,
                  counted_unit=workload.counted_unit,
                  tail_pct=workload.tail_pct, placement=placement,
                  problems=problems, leaked_segments=leaked,
                  fail_share=failed / attempted)

    print(f"# {name}: seed {seed}, {seconds:g} s, trace {int(trace)}, "
          f"driver cpu {allowed[0]}, machines {placement['machine_cpu']}")
    for n, m in metrics.items():
        print(f"{n:32s} {m['value']:16.6g} {m['unit']}")
    if trace:
        print("# self time (layer, median, minus what it covers):")
        for layer, median, self_time in detail["self_time"]:
            print(f"#   {layer:30s} {median:12.3f} {self_time:12.3f}")
    else:
        print(f"# samples: {detail['samples']['timed']} timed "
              f"({workload.timed_unit}), {detail['samples']['beyond_tail']} "
              f"beyond p{workload.tail_pct}; fail_share "
              f"{detail['fail_share']:g}")
    for problem in problems:
        print(f"# PROBLEM: {problem}")
    if leaked:
        print(f"# LEAK: the program left {leaked} in /dev/shm (removed)")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (out_dir / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps({**result, "detail": detail}, indent=1))
    print(json.dumps(result))
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# The whole set
# ---------------------------------------------------------------------------


def run_all(seed: int, seconds: float, trace: bool, out_dir: Path) -> int:
    """Each workload in its own interpreter, so that no cache, counter
    or thread of one workload is there when the next is measured."""
    status = 0
    merged: dict = {"seed": seed, "seconds": seconds, "trace": int(trace),
                    "bounds": {m["name"]: m["bound"]
                               for m in SPEC["end_to_end"]},
                    "better": {m["name"]: m["better"]
                               for m in SPEC["end_to_end"]},
                    "workloads": {}}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace)),
             "--out", str(out_dir)],
            stdout=subprocess.PIPE, text=True)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        status = max(status, done.returncode)
        detail = out_dir / f"{name}-seed{seed}-trace{int(trace)}.json"
        if done.returncode in (0, 1) and detail.exists():
            merged["workloads"][name] = json.loads(detail.read_text())
    path = out_dir / f"perf-seed{seed}{'-trace' if trace else ''}.json"
    path.write_text(json.dumps(merged, indent=1))
    print(f"# wrote {path}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(SPEC["run_seconds"]),
                        help="timed seconds per workload")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1), help="1: the per-layer run")
    parser.add_argument("--quick", action="store_true",
                        help="0.2 s trials (smoke test, not a measurement)")
    parser.add_argument("--out", type=Path, default=Path("perf_out"),
                        help="directory for the JSON and span files")
    args = parser.parse_args(argv)
    seconds = QUICK_SECONDS if args.quick else args.seconds
    if seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload is None:
        return run_all(args.seed, seconds, bool(args.trace), args.out)
    return run_one(args.workload, args.seed, seconds, bool(args.trace),
                   args.out)


if __name__ == "__main__":
    sys.exit(main())
