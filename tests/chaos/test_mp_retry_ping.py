"""Acceptance: a dropped-then-retried idempotent call succeeds on mp.

The fault plan drops the first ``ping`` request on the wire.  With a
call deadline and a retry budget the caller re-sends and succeeds; with
``retries=0`` the same fault surfaces as ``CallTimeoutError``.
"""

from __future__ import annotations

import time

import pytest

import repro as oopp
from repro.errors import CallTimeoutError
from repro.transport.faults import FaultPlan, FaultRule


class Counter:
    __oopp_idempotent__ = frozenset({"get"})

    def __init__(self):
        self.value = 0

    def bump(self):
        self.value += 1
        return self.value

    def get(self):
        return self.value


def drop_first(method):
    return FaultPlan(seed=5, rules=[
        FaultRule(action="drop", direction="send", kinds=("req",),
                  methods=(method,), nth=1)])


def test_dropped_ping_retried_to_success(tmp_path):
    with oopp.Cluster(n_machines=2, backend="mp", call_timeout_s=1.0,
                      retry=oopp.RetryConfig(retries=2, backoff_s=0.05),
                      fault_plan=drop_first("ping"),
                      storage_root=str(tmp_path / "r")) as cluster:
        t0 = time.monotonic()
        assert cluster.fabric.ping(1) == 1
        dt = time.monotonic() - t0
        # First attempt burned the 1s deadline; the retry succeeded.
        assert dt >= 1.0


def test_dropped_ping_without_retries_times_out(tmp_path):
    with oopp.Cluster(n_machines=2, backend="mp", call_timeout_s=1.0,
                      retry=oopp.RetryConfig(retries=0),
                      fault_plan=drop_first("ping"),
                      storage_root=str(tmp_path / "r")) as cluster:
        with pytest.raises(CallTimeoutError):
            cluster.fabric.ping(1)
        # The machine itself is fine: the next ping is not dropped.
        assert cluster.fabric.ping(1) == 1


def test_non_idempotent_method_is_never_retried(tmp_path):
    with oopp.Cluster(n_machines=2, backend="mp", call_timeout_s=1.0,
                      retry=oopp.RetryConfig(retries=3, backoff_s=0.05),
                      fault_plan=drop_first("bump"),
                      storage_root=str(tmp_path / "r")) as cluster:
        c = cluster.new(Counter, machine=1)
        t0 = time.monotonic()
        with pytest.raises(CallTimeoutError):
            c.bump()
        dt = time.monotonic() - t0
        # One deadline, no backoff rounds: the ambiguous mutation must
        # surface instead of being re-sent.
        assert dt < 2.5
        assert c.get() == 0  # the dropped bump never executed


def test_dropped_idempotent_read_retried(tmp_path):
    with oopp.Cluster(n_machines=2, backend="mp", call_timeout_s=1.0,
                      retry=oopp.RetryConfig(retries=2, backoff_s=0.05),
                      fault_plan=drop_first("get"),
                      storage_root=str(tmp_path / "r")) as cluster:
        c = cluster.new(Counter, machine=1)
        c.bump()
        assert c.get() == 1  # first get dropped, retry answers
