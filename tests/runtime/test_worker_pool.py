"""WorkerPool: on-demand threads under a cap, no stranded work, logged
failures, and the submit-after-shutdown contract the object server's
admission rollback depends on."""

from __future__ import annotations

import logging
import sys
import threading
import time

import pytest

from repro.util.pool import WorkerPool


def _run_all(pool: WorkerPool, n: int, body=lambda: None) -> None:
    done = threading.Semaphore(0)

    def task():
        try:
            body()
        finally:
            done.release()

    for _ in range(n):
        pool.submit(task)
    for _ in range(n):
        assert done.acquire(timeout=10), "a task never ran"


class TestWorkerPool:
    def test_threads_start_on_demand(self):
        pool = WorkerPool(8, name="t-demand")
        assert pool.size == 0
        for _ in range(5):
            _run_all(pool, 1)  # strictly one at a time
        assert 1 <= pool.size <= 2, "sequential work must not grow the pool"
        pool.shutdown()

    def test_never_grows_past_its_cap(self):
        pool = WorkerPool(3, name="t-cap")
        running, peak, lock = [0], [0], threading.Lock()

        def body():
            with lock:
                running[0] += 1
                peak[0] = max(peak[0], running[0])
            time.sleep(0.01)
            with lock:
                running[0] -= 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # force switches inside submit/_work
        try:
            _run_all(pool, 40, body)
        finally:
            sys.setswitchinterval(interval)
        assert pool.size == 3 and peak[0] == 3
        names = [t.name for t in threading.enumerate()
                 if t.name.startswith("t-cap_")]
        assert len(names) == 3
        pool.shutdown()

    def test_back_to_back_tasks_all_start_concurrently(self):
        # The stranding bug: a task waiting in the queue while the pool
        # is below its cap and no worker is free to take it.  All eight
        # must be inside their body at once or the barrier times out.
        pool = WorkerPool(8, name="t-strand")
        for round_ in range(3):  # also with warm (idle) workers
            barrier = threading.Barrier(9)
            for _ in range(8):
                pool.submit(barrier.wait, 5)
            barrier.wait(5)
        assert pool.size == 8
        pool.shutdown()

    def test_raising_task_is_logged_and_worker_survives(self, caplog):
        pool = WorkerPool(1, name="t-raise")

        def boom():
            raise ValueError("task blew up")

        with caplog.at_level(logging.ERROR, logger="oopp.pool"):
            pool.submit(boom)
            _run_all(pool, 3)  # same single worker keeps serving
        assert pool.size == 1
        assert any("task blew up" in (r.exc_text or "")
                   for r in caplog.records)
        pool.shutdown()

    def test_submit_after_shutdown_raises(self):
        pool = WorkerPool(2, name="t-closed")
        _run_all(pool, 2)
        pool.shutdown()
        with pytest.raises(RuntimeError):
            pool.submit(print)

    def test_shutdown_drops_queued_work_and_stops_daemon_workers(self):
        pool = WorkerPool(1, name="t-stop")
        gate, ran = threading.Event(), []
        pool.submit(gate.wait, 5)
        pool.submit(ran.append, 1)  # queued behind the running task
        pool.shutdown()
        gate.set()
        workers = [t for t in threading.enumerate()
                   if t.name.startswith("t-stop_")]
        for t in workers:
            assert t.daemon
            t.join(5)
            assert not t.is_alive()
        assert ran == []


class TestServerRollback:
    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning")
    def test_submit_after_shutdown_rolls_the_admission_back(self):
        """A request that arrives after the pool was shut down was
        already admitted on the reader thread (depth counted); the
        connection loop must cancel that admission before it dies."""
        from repro.backends.mp import MachineServer
        from repro.config import Config, ServeConfig
        from repro.transport.message import Request
        from repro.transport.socket_channel import SocketChannel

        server = MachineServer(0, Config(
            n_machines=1, backend="mp", serve=ServeConfig(max_queue_depth=1)))
        accept = threading.Thread(target=server._accept_loop, daemon=True)
        accept.start()
        client = SocketChannel.connect("127.0.0.1", server.port, timeout=5)
        try:
            server.workers.shutdown()
            deadline = time.monotonic() + 5
            while not server._conns and time.monotonic() < deadline:
                time.sleep(0.005)  # accepted: its oopp-conn thread runs
            conn_threads = [t for t in threading.enumerate()
                            if t.name == "oopp-conn"]
            assert len(conn_threads) == 1
            client.send(Request(request_id=1, object_id=42, method="hello"))
            # The loop re-raises after the rollback and the thread ends.
            conn_threads[0].join(5)
            assert not conn_threads[0].is_alive()
            assert server.policy.stats()["queued"] == 0
            # max_queue_depth=1: a leaked depth would shed this admit
            server.policy.admit(42, "hello")
            server.policy.cancel_admit(42)
        finally:
            client.close()
            server.kernel.stop_event.set()
            server.listener.close()
            server.kernel_workers.shutdown()
            server.outbound.close()
