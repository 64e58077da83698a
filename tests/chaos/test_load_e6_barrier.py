"""Fault-under-load on the E6 group/barrier path (mp backend).

Delay faults stretch individual messages; the pipelined group invoke and
the barrier must still complete with exact results and no duplicated
side effects.
"""

from __future__ import annotations

import pytest

import repro as oopp
from repro.transport.faults import FaultPlan, FaultRule


class Tallier:
    """Counts its own invocations — duplicates would show."""

    def __init__(self):
        self.calls = 0

    def work(self, x):
        self.calls += 1
        return 2 * x

    def count(self):
        return self.calls


@pytest.fixture
def shaky_cluster(tmp_path):
    plan = FaultPlan(seed=13, rules=[
        FaultRule(action="delay", direction="both", probability=0.3,
                  delay_s=0.01, max_fires=None)])
    with oopp.Cluster(n_machines=3, backend="mp", call_timeout_s=30.0,
                      retry=oopp.RetryConfig(retries=2, backoff_s=0.05),
                      fault_plan=plan,
                      storage_root=str(tmp_path / "r")) as cluster:
        yield cluster


def test_group_invoke_exact_under_delays(shaky_cluster):
    group = shaky_cluster.new_group(Tallier, 6)
    assert group.invoke("work", 21) == [42] * 6


def test_barrier_drains_under_delays(shaky_cluster):
    group = shaky_cluster.new_group(Tallier, 6)
    futures = group.futures("work", 3)
    group.barrier(timeout=30.0)
    assert oopp.gather(futures) == [6] * 6
    # Delays never duplicated a non-idempotent call.
    assert group.invoke("count") == [1] * 6


def test_repeated_barriers_under_delays(shaky_cluster):
    group = shaky_cluster.new_group(Tallier, 4)
    for round_no in range(1, 4):
        group.invoke("work", round_no)
        group.barrier(timeout=30.0)
    assert group.invoke("count") == [3] * 4
