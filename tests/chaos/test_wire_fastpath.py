"""Chaos × wire fast path: BATCH drops retry per call, shm never leaks.

The tentpole invariant: a coalesced batch that drops is retried *per
idempotent call*, never as a blob — the retry layer lives above the
coalescer, so each lost call re-enters ``Fabric.call`` individually and
the re-sent requests simply join whatever batch is forming at that
moment.  And faults on shm-referenced messages must never leak
``/dev/shm`` segments (a dropped message dies unreferenced; its GC
finalizer unlinks the segment).
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

import repro as oopp
from repro.errors import CallTimeoutError
from repro.transport.faults import FaultPlan, FaultRule


class Board:
    __oopp_idempotent__ = frozenset({"read", "sum_of"})

    def __init__(self):
        self.pages = {}

    def write(self, key, page):
        self.pages[key] = page
        return key

    def read(self, key):
        return self.pages.get(key)

    def sum_of(self, key):
        return float(self.pages[key].sum()) if key in self.pages else None


class Cell:
    """A remote value with an idempotent read (retry-eligible)."""

    __oopp_idempotent__ = frozenset({"sum"})

    def __init__(self, value=0.0):
        self.value = value

    def fill(self, value):
        self.value = value
        return True

    def sum(self):
        return self.value


class TestBatchDrop:
    def test_dropped_batch_retries_per_call(self, tmp_path):
        # Drop one whole BATCH envelope on the driver's dialed channel.
        # Every idempotent call inside it must individually time out and
        # retry to success — no call may be lost or answered twice.
        plan = FaultPlan(seed=11, rules=[
            FaultRule(action="drop", direction="send", kinds=("batch",),
                      nth=1)])
        with oopp.Cluster(n_machines=2, backend="mp", call_timeout_s=1.0,
                          retry=oopp.RetryConfig(retries=3, backoff_s=0.05),
                          fault_plan=plan,
                          storage_root=str(tmp_path / "r")) as cluster:
            cells = [cluster.new(Cell, machine=1) for _ in range(3)]
            for i, c in enumerate(cells):
                c.fill(float(i + 1))
            # Synchronous idempotent calls from several threads: they
            # pile into the coalescer together, so the dropped BATCH
            # takes multiple calls down at once.
            results = {}
            errors = []

            def call(i):
                try:
                    results[i] = cells[i].sum()
                except BaseException as exc:  # noqa: BLE001
                    errors.append(exc)

            threads = [threading.Thread(target=call, args=(i,))
                       for i in range(3)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not errors, errors
            assert results == {0: 1.0, 1: 2.0, 2: 3.0}

    def test_dropped_batch_without_retries_times_out_each_call(self, tmp_path):
        # Every multi-message flush on the dialed channel is dropped;
        # solo flushes pass.  A pipelined burst of futures outruns the
        # writer thread, so some flushes *must* batch — and with
        # retries=0 every call inside a dropped batch times out
        # individually instead of wedging the connection.
        plan = FaultPlan(seed=3, rules=[
            FaultRule(action="drop", direction="send", kinds=("batch",),
                      probability=1.0)])
        with oopp.Cluster(n_machines=2, backend="mp", call_timeout_s=0.8,
                          retry=oopp.RetryConfig(retries=0), fault_plan=plan,
                          storage_root=str(tmp_path / "r")) as cluster:
            c = cluster.new(Cell, machine=1)
            c.fill(2.0)
            futures = [c.sum.future() for _ in range(60)]
            hit = []
            for f in futures:
                try:
                    hit.append(f.result(2.0))
                except CallTimeoutError:
                    hit.append("timeout")
            assert "timeout" in hit, "no flush ever coalesced into a batch"
            # The channel itself stays usable: a lone call flushes solo.
            time.sleep(0.05)  # let the writer drain the burst backlog
            assert c.sum() == 2.0

    def test_corrupted_batch_lost_then_retried(self, tmp_path):
        plan = FaultPlan(seed=7, rules=[
            FaultRule(action="corrupt", direction="send", kinds=("batch",),
                      nth=1)])
        with oopp.Cluster(n_machines=2, backend="mp", call_timeout_s=1.0,
                          retry=oopp.RetryConfig(retries=3, backoff_s=0.05),
                          fault_plan=plan,
                          storage_root=str(tmp_path / "r")) as cluster:
            c = cluster.new(Cell, machine=1)
            c.fill(3.0)
            assert c.sum() == 3.0


class TestShmUnderFaults:
    THRESHOLD = 1 << 12

    def cluster(self, tmp_path, plan, **kw):
        return oopp.Cluster(n_machines=2, backend="mp",
                            wire=oopp.WireConfig(
                                shm_threshold_bytes=self.THRESHOLD),
                            fault_plan=plan,
                            storage_root=str(tmp_path / "r"), **kw)

    def big_page(self):
        from repro.storage.page import ArrayPage

        return ArrayPage(16, 16, 16, np.arange(4096.0))  # 32 KiB >= threshold

    def test_dropped_shm_request_leaves_no_segment(self, tmp_path):
        # The first big write is dropped pre-encode (no segment is ever
        # created for it); the retry ships a fresh one that must be
        # cleaned up after the receiver consumes it.
        plan = FaultPlan(seed=13, rules=[
            FaultRule(action="drop", direction="send", kinds=("req",),
                      methods=("write",), nth=1)])
        with self.cluster(tmp_path, plan, call_timeout_s=1.0) as cl:
            board = cl.new(Board, machine=1)
            with pytest.raises(CallTimeoutError):
                board.write("k", self.big_page())  # dropped, not retried
            assert board.write("k2", self.big_page()) == "k2"
            assert board.sum_of("k2") == float(np.arange(4096.0).sum())

    def test_dropped_shm_response_releases_segment(self, tmp_path):
        # The response carrying the big page back is dropped *after*
        # decode on the receiving (driver) side: the decoded message dies
        # unreferenced and its finalizer must release the segment.  On
        # this connection res #1 acks machine startup, #2 the create and
        # #3 the write, so #4 is exactly the shm-carrying read reply.
        plan = FaultPlan(seed=17, rules=[
            FaultRule(action="drop", direction="recv", kinds=("res",),
                      nth=4)])
        with self.cluster(tmp_path, plan, call_timeout_s=1.5,
                          retry=oopp.RetryConfig(retries=2,
                                                 backoff_s=0.05)) as cl:
            board = cl.new(Board, machine=1)
            board.write("k", self.big_page())
            page = board.read("k")  # idempotent: dropped reply -> retry
            assert page.sum() == float(np.arange(4096.0).sum())
            del page

    def test_corrupted_shm_response_releases_segment(self, tmp_path):
        plan = FaultPlan(seed=19, rules=[
            FaultRule(action="corrupt", direction="recv", kinds=("res",),
                      nth=4)])
        with self.cluster(tmp_path, plan, call_timeout_s=1.5,
                          retry=oopp.RetryConfig(retries=2,
                                                 backoff_s=0.05)) as cl:
            board = cl.new(Board, machine=1)
            board.write("k", self.big_page())
            page = board.read("k")
            assert page is not None and len(page) == 4096 * 8
            del page

    def test_many_transfers_under_repeated_drops_no_leak(self, tmp_path):
        # Three distinct read replies vanish mid-run (res #1-#3 ack the
        # startup, create and write; everything later is an idempotent
        # read).
        plan = FaultPlan(seed=23, rules=[
            FaultRule(action="drop", direction="recv", kinds=("res",),
                      nth=n) for n in (4, 6, 9)])
        with self.cluster(tmp_path, plan, call_timeout_s=1.0,
                          retry=oopp.RetryConfig(retries=4,
                                                 backoff_s=0.05)) as cl:
            board = cl.new(Board, machine=1)
            board.write("k", self.big_page())
            expect = float(np.arange(4096.0).sum())
            for _ in range(12):
                page = board.read("k")
                assert page.sum() == expect
                del page
            # Leak check happens in the autouse fixture after shutdown.
