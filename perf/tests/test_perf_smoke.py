"""Smoke test of the benchmark itself (not collected by tier-1).

    PYTHONPATH=src python -m pytest perf/tests

Runs every workload with 0.2 s trials, which proves the plumbing, not
the numbers.
"""

from __future__ import annotations

import copy
import json
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perf import compare  # noqa: E402 - needs the path above
from perf.workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(ROOT / "perf" / "run.py"),
                           *args], capture_output=True, text=True,
                          cwd=ROOT, timeout=600)


@pytest.fixture(scope="module")
def quick_runs(tmp_path_factory) -> dict[int, dict]:
    """One ``--quick`` set per mode, as the merged JSON files."""
    out = tmp_path_factory.mktemp("perf_out")
    merged = {}
    for trace, suffix in ((0, ""), (1, "-trace")):
        done = _run("--quick", "--seed", "3", "--trace", str(trace),
                    "--out", str(out))
        assert done.returncode == 0, done.stdout + done.stderr
        merged[trace] = json.loads(
            (out / f"perf-seed3{suffix}.json").read_text())
        merged[trace]["stdout"] = done.stdout
    return merged


def test_names_are_well_formed_and_unique():
    names = [m["name"] for kind in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[kind]]
    assert all(NAME.fullmatch(n) for n in names), names
    assert len(set(names)) == len(names)
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert any(m["name"] == "setup_s" for m in SPEC["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_quick_set_prints_exactly_the_declared_metrics(quick_runs, trace,
                                                       kind):
    declared = {m["name"]: m["unit"] for m in SPEC[kind]}
    run = quick_runs[trace]
    assert list(run["workloads"]) == list(WORKLOADS)
    for name, result in run["workloads"].items():
        assert result["correct"], (name, result["detail"]["problems"])
        assert result["failed"] == 0 and result["attempted"] >= 1
        printed = {n: m["unit"] for n, m in result["metrics"].items()}
        assert printed == declared, name
        for metric in declared:
            assert re.search(rf"^{re.escape(metric)}\s", run["stdout"],
                             re.MULTILINE), metric
    if trace == 0:
        for result in run["workloads"].values():
            assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert all((Path(r["detail"]["span_file"])).stat().st_size
                   for r in run["workloads"].values())


def test_driver_form_ends_with_one_json_object(tmp_path):
    done = _run("--workload", "call_seq", "--seed", "5", "--seconds", "1",
                "--trace", "0", "--out", str(tmp_path))
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert all(set(m) == {"value", "unit"} for m in last["metrics"].values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_same_inputs(name):
    workload = WORKLOADS[name]
    first, again, other = (pickle.dumps(workload.inputs(seed, 1.0))
                           for seed in (11, 11, 12))
    assert first == again
    assert first != other


def test_compare_flags_a_regression_and_passes_identical(quick_runs):
    base = {k: v for k, v in quick_runs[0].items() if k != "stdout"}
    # 0.2 s trials are noisy; give every metric quiet trials so that the
    # verdicts below depend on the values alone.
    for result in base["workloads"].values():
        for metric, m in result["metrics"].items():
            result["detail"]["trials"][metric] = [m["value"]] * 5
    assert {r["verdict"] for r in compare.compare([base], [base])} == {
        "unchanged"}

    slower = copy.deepcopy(base)
    metric = slower["workloads"]["call_seq"]["metrics"]["op_p50_ms"]
    metric["value"] *= 1.2
    rows = compare.compare([base], [slower])
    regressed = [(r["workload"], r["metric"]) for r in rows
                 if r["verdict"] == "regressed"]
    assert regressed == [("call_seq", "op_p50_ms")]

    faster = copy.deepcopy(base)
    faster["workloads"]["call_burst"]["metrics"]["ops_per_s"]["value"] *= 1.2
    improved = [(r["workload"], r["metric"])
                for r in compare.compare([base], [faster])
                if r["verdict"] == "improved"]
    assert improved == [("call_burst", "ops_per_s")]

    noisy = copy.deepcopy(base)
    trials = noisy["workloads"]["call_seq"]["detail"]["trials"]
    trials["op_p50_ms"] = [v * metric["value"]
                           for v in (0.5, 0.8, 1.0, 1.3, 1.6)]
    assert [r["verdict"] for r in compare.compare([base], [noisy])
            if (r["workload"], r["metric"]) == ("call_seq", "op_p50_ms")
            ] == ["unresolved"]
