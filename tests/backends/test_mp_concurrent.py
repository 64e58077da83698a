"""PeerClient under concurrent .future() bursts from many threads.

The wire fast path coalesces these bursts into BATCH frames; what must
never change: every call gets a unique request id, every future resolves
to its own call's result (no cross-wiring), frames never interleave on
the socket, and the knobs can be flipped off without changing semantics.
"""

from __future__ import annotations

import threading

import pytest

import repro as oopp
from repro.util.ids import IdAllocator


class Echo:
    def echo(self, tag):
        return tag

    def add(self, a, b):
        return a + b


def burst_from_threads(cluster, n_threads=6, per_thread=40):
    """Fire echo futures from many driver threads; return (sent, got)."""
    objs = [cluster.new(Echo, machine=m)
            for m in range(cluster.fabric.machine_count)]
    results: dict[int, list] = {}
    errors: list[BaseException] = []

    def caller(tid):
        try:
            futures = []
            for i in range(per_thread):
                obj = objs[(tid + i) % len(objs)]
                futures.append((tid * 10_000 + i, obj.echo.future(tid * 10_000 + i)))
            results[tid] = [(tag, f.result(30)) for tag, f in futures]
        except BaseException as exc:  # noqa: BLE001 - collected for assert
            errors.append(exc)

    threads = [threading.Thread(target=caller, args=(t,))
               for t in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not errors, errors
    return n_threads * per_thread, results


class TestConcurrentBursts:
    def test_every_future_gets_its_own_result(self, mp_cluster):
        total, results = burst_from_threads(mp_cluster)
        flat = [pair for r in results.values() for pair in r]
        assert len(flat) == total
        for tag, value in flat:
            assert value == tag, "response cross-wired between futures"

    def test_burst_with_fastpath_disabled(self, tmp_path):
        with oopp.Cluster(n_machines=2, backend="mp", call_timeout_s=60.0,
                          wire=oopp.WireConfig(coalesce=False,
                                               header_cache=False,
                                               shm=False),
                          storage_root=str(tmp_path / "root")) as cluster:
            total, results = burst_from_threads(cluster, n_threads=4,
                                                per_thread=25)
            flat = [pair for r in results.values() for pair in r]
            assert len(flat) == total
            assert all(v == t for t, v in flat)

    @pytest.mark.parametrize("knob", ["coalesce", "header_cache", "shm"])
    def test_each_knob_disables_independently(self, tmp_path, knob):
        with oopp.Cluster(n_machines=2, backend="mp", call_timeout_s=60.0,
                          storage_root=str(tmp_path / "root"),
                          wire=oopp.WireConfig(**{knob: False})
                          ) as cluster:
            obj = cluster.new(Echo, machine=1)
            futures = [obj.add.future(i, 1) for i in range(50)]
            assert [f.result(30) for f in futures] == list(range(1, 51))

    def test_request_ids_unique_across_threads(self, mp_cluster):
        # The ids behind the futures come from one IdAllocator per
        # PeerClient; hammer it the way the burst does and check directly.
        alloc = IdAllocator()
        seen: list[int] = []
        lock = threading.Lock()

        def take():
            mine = [alloc.next() for _ in range(500)]
            with lock:
                seen.extend(mine)

        threads = [threading.Thread(target=take) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert len(seen) == len(set(seen)) == 8 * 500

    def test_frames_never_interleave_under_burst(self, mp_cluster):
        # Interleaved frames would desynchronize the stream and surface
        # as framing/pickle errors or wrong results; a clean burst across
        # all machines is the end-to-end proof.
        total, results = burst_from_threads(mp_cluster, n_threads=8,
                                            per_thread=30)
        flat = [pair for r in results.values() for pair in r]
        tags = [t for t, _ in flat]
        assert len(tags) == len(set(tags)) == total
        assert all(v == t for t, v in flat)

    def test_traffic_shows_fewer_frames_than_messages(self, tmp_path):
        # With coalescing on, a single-threaded pipelined burst should
        # need fewer outbound frames than requests sent.
        with oopp.Cluster(n_machines=1, backend="mp", call_timeout_s=60.0,
                          storage_root=str(tmp_path / "root")) as cluster:
            obj = cluster.new(Echo, machine=0)
            obj.echo("warm")  # connection + first frames
            base = cluster.fabric.traffic()["frames_out"]
            n = 200
            futures = [obj.echo.future(i) for i in range(n)]
            assert [f.result(30) for f in futures] == list(range(n))
            sent = cluster.fabric.traffic()["frames_out"] - base
            assert sent <= n, f"coalescing never packed: {sent} frames for {n}"
