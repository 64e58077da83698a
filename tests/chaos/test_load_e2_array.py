"""Fault-under-load on the E2 remote-array path (mp backend).

Probabilistic delay faults on every link while Blocks are written, read
and reduced; with a deadline and a retry budget every result must still
be exact.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro as oopp
from repro.transport.faults import FaultPlan, FaultRule


@pytest.fixture
def shaky_cluster(tmp_path):
    plan = FaultPlan(seed=11, rules=[
        FaultRule(action="delay", direction="both", probability=0.25,
                  delay_s=0.01, max_fires=None)])
    with oopp.Cluster(n_machines=3, backend="mp", call_timeout_s=30.0,
                      retry=oopp.RetryConfig(retries=2, backoff_s=0.05),
                      fault_plan=plan,
                      storage_root=str(tmp_path / "r")) as cluster:
        yield cluster


def test_block_round_trips_survive_delays(shaky_cluster):
    blocks = [shaky_cluster.new_block(64, machine=m) for m in (1, 2)]
    for j, blk in enumerate(blocks):
        blk.write(0, np.arange(64.0) + j)
    for j, blk in enumerate(blocks):
        got = blk.read()
        assert np.array_equal(got, np.arange(64.0) + j)


def test_reductions_survive_delays(shaky_cluster):
    blk = shaky_cluster.new_block(128, machine=1)
    data = np.linspace(-1.0, 1.0, 128)
    blk.write(0, data)
    assert blk.sum() == pytest.approx(data.sum())
    assert blk.min() == pytest.approx(data.min())
    assert blk.max() == pytest.approx(data.max())
    assert blk.dot(data) == pytest.approx(data @ data)


def test_many_small_ops_under_sustained_delays(shaky_cluster):
    blk = shaky_cluster.new_block(16, machine=2)
    blk.fill(0.0)
    for i in range(16):
        blk.write(i, np.array([float(i)]))
    assert np.array_equal(blk.read(), np.arange(16.0))
    assert blk.sum() == pytest.approx(np.arange(16.0).sum())


def test_pipelined_futures_complete_under_delays(shaky_cluster):
    blk = shaky_cluster.new_block(32, machine=1)
    blk.write(0, np.ones(32))
    futures = [blk.sum.future() for _ in range(8)]
    results = oopp.gather(futures)
    assert results == [pytest.approx(32.0)] * 8
