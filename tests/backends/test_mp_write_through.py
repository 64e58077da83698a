"""The mp call path after ISSUE 12: write-through only when a message is
alone in flight, batching everywhere else, and a machine that exits
without leaving shm segments behind."""

from __future__ import annotations

import numpy as np

import repro as oopp
from repro.obs.metrics import counters
from repro.transport import shm


class Echo:
    def __init__(self) -> None:
        self.seen = 0

    def echo(self, tag):
        return tag

    def note(self, tag) -> None:
        self.seen += 1

    def count(self) -> int:
        return self.seen


def _coalesce(metrics: dict, who: str) -> dict:
    c = metrics[who]["coalesce"]
    return {k: c.get(k, 0) for k in (
        "direct_writes", "flushes", "messages_out",
        "batched_flushes", "batched_messages")}


def _delta(cluster, body) -> dict:
    """Coalescer counter movement over *body*, per process.  metrics()
    is itself a blocking call per machine, so the deltas carry a few
    extra direct writes; the assertions leave room for them."""
    before = cluster.metrics()
    body()
    after = cluster.metrics()
    out = {}
    for who in ("driver", "machine 0"):
        b, a = _coalesce(before, who), _coalesce(after, who)
        out[who] = {k: a[k] - b[k] for k in a}
    return out


class TestWriteThroughOnMp:
    def test_blocking_calls_are_written_through_both_ways(self, mp_cluster):
        obj = mp_cluster.new(Echo, machine=0)
        d = _delta(mp_cluster,
                   lambda: [obj.echo(i) for i in range(200)])
        assert (d["driver"]["direct_writes"]
                + d["machine 0"]["direct_writes"]) >= 380
        for who in d:
            assert d[who]["batched_flushes"] == 0
            # one message per flush, written through or not
            assert d[who]["flushes"] == d[who]["messages_out"]

    def test_a_burst_still_coalesces_on_both_sides(self, mp_cluster):
        obj = mp_cluster.new(Echo, machine=0)
        fire = obj.echo.future

        def burst():
            futures = [fire(i) for i in range(2000)]
            assert [f.result(60) for f in futures] == list(range(2000))

        d = _delta(mp_cluster, burst)
        for who in d:
            assert d[who]["messages_out"] >= 2000
            share = d[who]["batched_messages"] / d[who]["messages_out"]
            assert share >= 0.9, (who, d[who])

    def test_oneway_sends_always_queue(self, mp_cluster):
        obj = mp_cluster.new(Echo, machine=0)
        obj.echo(0)  # connection up, nothing in flight
        before = counters().get("coalesce.direct_writes")
        for i in range(500):
            obj.note.oneway(i)
        assert counters().get("coalesce.direct_writes") == before
        # Same connection, FIFO: the blocking read sees every note.
        assert obj.count() == 500


class Depositor:
    """A peer-to-peer exchange shaped like the FFT's transpose step."""

    def __init__(self) -> None:
        self.inbox = None

    def deposit(self, block) -> int:
        self.inbox = np.asarray(block)
        return int(self.inbox[0])

    def push(self, peer, fill: int) -> int:
        block = np.full(1 << 18, fill, dtype=np.int32)  # 1 MiB: rides shm
        return peer.deposit(block)


def test_machines_leave_no_shm_segment_behind(tmp_path):
    """perf/README.md's first finding: a machine's reader thread kept the
    last deposit alive and the forked process left through os._exit."""
    ours: set[str] = set()
    for cycle in range(20):
        with oopp.Cluster(n_machines=2, backend="mp", call_timeout_s=30.0,
                          storage_root=str(tmp_path / "root")) as cluster:
            ours |= {f"{shm.SHM_NAME_PREFIX}{pid:x}-"
                     for pid in cluster.fabric.machine_pids()}
            a = cluster.new(Depositor, machine=0)
            b = cluster.new(Depositor, machine=1)
            fa, fb = a.push.future(b, cycle), b.push.future(a, cycle + 1)
            assert (fa.result(30), fb.result(30)) == (cycle, cycle + 1)
    left = [n for n in shm.host_shm_names()
            if any(n.startswith(p) for p in ours)]
    assert left == []
