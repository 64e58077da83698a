"""Measurement rules shared by every workload.

Pinning, cluster start/stop, ``/proc`` readers, the trial loop and the
hygiene checks.  Everything here observes the program from outside:
nothing under ``src/`` is touched or patched.
"""

from __future__ import annotations

import gc
import math
import multiprocessing
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any

import repro as oopp
from repro.loadgen.report import percentiles
from repro.transport import shm

#: trials per phase; every timing metric is a median over these.
TRIALS = 5
#: untimed load before the first trial, as a share of ``--seconds``.
WARM_SHARE = 0.2
#: cluster start/place/stop cycles behind the ``setup_s`` median.
SETUP_CYCLES = 9
N_MACHINES = 2
CALL_TIMEOUT_S = 60.0

_TICK = os.sysconf("SC_CLK_TCK")


class PinningError(RuntimeError):
    """Affinity could not be set; the numbers would measure the scheduler."""


# ---------------------------------------------------------------------------
# Pinning
# ---------------------------------------------------------------------------


def pin_driver() -> list[int]:
    """Pin this (still single-threaded) process to its first allowed cpu.

    Threads started later inherit the mask, so the load generator and
    the cluster's own connection threads all stay on that cpu.  Returns
    the cpus the benchmark may use, in order.
    """
    try:
        allowed = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {allowed[0]})
    except (AttributeError, OSError) as exc:
        raise PinningError(f"cannot pin the driver: {exc}") from exc
    return allowed


def pin_machines(allowed: list[int]) -> dict[int, int]:
    """Re-pin every task of machine process *k* to cpu ``(k+1) % nproc``.

    Machines fork with the driver's mask; a thread a machine starts
    while we walk ``/proc/<pid>/task`` inherits whatever its creator had
    at that instant, so the walk repeats until a pass changes nothing.
    """
    placement: dict[int, int] = {}
    for proc in multiprocessing.active_children():
        if not proc.name.startswith("oopp-machine-"):
            continue
        k = int(proc.name.rsplit("-", 1)[1])
        cpu = allowed[(k + 1) % len(allowed)]
        placement[k] = cpu
        try:
            changed = True
            while changed:
                changed = False
                for tid in os.listdir(f"/proc/{proc.pid}/task"):
                    if os.sched_getaffinity(int(tid)) != {cpu}:
                        os.sched_setaffinity(int(tid), {cpu})
                        changed = True
        except OSError as exc:
            raise PinningError(
                f"cannot pin machine {k} (pid {proc.pid}): {exc}") from exc
    if len(placement) != N_MACHINES:
        raise PinningError(f"found machines {sorted(placement)}, "
                           f"expected {N_MACHINES}")
    return placement


# ---------------------------------------------------------------------------
# /proc readers
# ---------------------------------------------------------------------------


def cpu_seconds(pid: int) -> float:
    """utime + stime of *pid*, all threads, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _TICK


def snapshot(cluster) -> dict:
    """Public counters of every process, plus the driver's traffic."""
    return {"metrics": cluster.metrics(), "traffic": cluster.fabric.traffic()}


def peak_rss_mb(pids: list[int]) -> float:
    """Sum of ``VmHWM`` over *pids*, in MB."""
    total_kb = 0
    for pid in pids:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
                    break
    return total_kb / 1024.0


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def percentile(samples: list[float], pct: float) -> float:
    """Nearest-rank percentile, as the repo's SLO gates define it."""
    return percentiles(samples, (pct,))[f"p{pct:g}"]


def beyond(samples: list[float], pct: float) -> int:
    """How many samples lie beyond the *pct* percentile."""
    return len(samples) - math.ceil(pct / 100 * len(samples))


# ---------------------------------------------------------------------------
# One measured pass over a workload
# ---------------------------------------------------------------------------


@dataclass
class Trial:
    """What one timed trial of a workload observed."""

    #: seconds per timed unit (call, burst, put+get pair, solve).
    samples: list[float]
    #: counted units completed and verified.
    ops: int
    attempted: int
    failed: int
    #: workload-specific extras (put/get split, lateness, migrate times).
    extra: dict = field(default_factory=dict)
    label: str = "main"
    wall_s: float = 0.0
    cpu_driver_s: float = 0.0
    cpu_machine_s: float = 0.0


@dataclass
class Pass:
    """One full pass: setup cycles, warm-up, trials, teardown, hygiene."""

    setup_s: list[float]
    spawn_s: list[float]
    shutdown_s: list[float]
    trials: list[Trial]
    peak_rss_mb: float
    placement: dict
    counters: dict
    problems: list[str]
    #: end-of-workload output checks made, and how many of them failed.
    end_checks: int
    end_failed: int
    spans: list = field(default_factory=list)


def start_cluster(workload, allowed: list[int], traced: bool):
    """The shipped default ``Config()`` on mp, pinned; returns
    ``(cluster, machine placement, seconds spent in Cluster())``."""
    options: dict[str, Any] = dict(n_machines=N_MACHINES, backend="mp",
                                   call_timeout_s=CALL_TIMEOUT_S)
    if workload.serve_workers is not None:
        options["serve"] = oopp.ServeConfig(workers=workload.serve_workers)
    if traced:
        options["trace"] = oopp.TraceConfig()
    t0 = time.perf_counter()
    cluster = oopp.Cluster(**options)
    spawn_s = time.perf_counter() - t0
    try:
        placement = pin_machines(allowed)
    except BaseException:
        cluster.shutdown()
        raise
    return cluster, placement, spawn_s


def run_pass(workload, inputs, seconds: float, allowed: list[int], *,
             traced: bool = False, stress: bool = False, probe=None) -> Pass:
    """Measure *workload* once, following the rules in README.md.

    *probe*, when given, is called after the trials with the still-open
    cluster: ``probe(cluster, state, before, after, calls)``, where
    *before*/*after* are :func:`snapshot` reads taken around the trials
    and *calls* the operations attempted between them.  What it returns
    lands in :attr:`Pass.counters`.
    """
    setup_s, spawn_s, shutdown_s = [], [], []
    cluster = state = None
    for cycle in range(SETUP_CYCLES):
        t0 = time.perf_counter()
        cluster, placement, spawned = start_cluster(workload, allowed, traced)
        try:
            state = workload.place(cluster, inputs)
        except BaseException:
            cluster.shutdown()
            raise
        setup_s.append(time.perf_counter() - t0)
        spawn_s.append(spawned)
        if cycle < SETUP_CYCLES - 1:
            state = None
            t0 = time.perf_counter()
            cluster.shutdown()
            shutdown_s.append(time.perf_counter() - t0)
    try:
        pids = [pid for pid in cluster.fabric.machine_pids() if pid]
        workload.run(cluster, state, inputs, WARM_SHARE * seconds, None)
        if traced:
            cluster.trace_spans()  # setup and warm-up spans are not load
        before = snapshot(cluster) if probe is not None else None
        trials: list[Trial] = []
        spans: list = []
        for index, (label, duration) in enumerate(
                workload.trials(seconds, stress)):
            cpu_d0 = time.process_time()
            cpu_m0 = sum(cpu_seconds(pid) for pid in pids)
            t0 = time.perf_counter()
            trial = workload.run(cluster, state, inputs, duration, index)
            trial.wall_s = time.perf_counter() - t0
            trial.cpu_driver_s = time.process_time() - cpu_d0
            trial.cpu_machine_s = sum(cpu_seconds(p) for p in pids) - cpu_m0
            trial.label = label
            trials.append(trial)
            if traced:
                drained = cluster.trace_spans()
                if label == "main":
                    spans.extend(s for s in drained
                                 if s.method in workload.load_methods)
        counters = {}
        if probe is not None:
            counters = probe(cluster, state, before, snapshot(cluster),
                             sum(t.attempted for t in trials))
        end_checks, end_failed = workload.verify_end(cluster, state)
        rss = peak_rss_mb([os.getpid(), *pids])
    finally:
        state = None
        gc.collect()
        t0 = time.perf_counter()
        cluster.shutdown()
        shutdown_s.append(time.perf_counter() - t0)
    return Pass(setup_s=setup_s, spawn_s=spawn_s, shutdown_s=shutdown_s,
                trials=trials, peak_rss_mb=rss, placement=placement,
                counters=counters, problems=hygiene(), end_checks=end_checks,
                end_failed=end_failed, spans=spans)


# ---------------------------------------------------------------------------
# Hygiene
# ---------------------------------------------------------------------------


def _child_pids() -> list[int]:
    """Live children of this process, from the kernel (not from
    ``multiprocessing``'s own bookkeeping)."""
    pids: list[int] = []
    for tid in os.listdir("/proc/self/task"):
        try:
            with open(f"/proc/self/task/{tid}/children") as f:
                pids.extend(int(p) for p in f.read().split())
        except OSError:
            pass  # the thread ended while we walked the directory
    return pids


def hygiene() -> list[str]:
    """What a finished workload left behind; empty when clean."""
    gc.collect()
    problems: list[str] = []
    children = _child_pids()
    if children or multiprocessing.active_children():
        problems.append(f"child processes left: {children}")
    leaked = [t.name for t in threading.enumerate()
              if t is not threading.main_thread() and not t.daemon]
    if leaked:
        problems.append(f"non-daemon threads left: {leaked}")
    live = shm.manager().stats()["segments_live"]
    if live:
        problems.append(f"{live} shm segments still attached")
    return problems


def placement_record(allowed: list[int], placement: dict) -> dict:
    return {"driver_cpu": allowed[0],
            "machine_cpu": {str(k): v for k, v in sorted(placement.items())},
            "nproc": len(allowed)}
