"""A lean worker pool: a queue of ``(fn, args)`` and daemon threads.

Fire-and-forget only — no ``Future``/``_WorkItem``/semaphore per submit,
which is what ``ThreadPoolExecutor`` charged the object server's reader
thread for results nobody read.  Threads start on demand up to *cap*; a
task never waits while the pool is below its cap and no worker is free:
``submit`` counts unfinished tasks against threads under one lock, and a
free worker is always blocked in ``get``.
"""

from __future__ import annotations

import queue
import threading

from .log import get_logger

log = get_logger("pool")


class WorkerPool:
    def __init__(self, cap: int, name: str = "oopp-pool") -> None:
        self._cap = max(1, cap)
        self._name = name
        self._tasks: queue.SimpleQueue = queue.SimpleQueue()
        self._lock = threading.Lock()
        self._threads: list[threading.Thread] = []
        self._unfinished = 0  # submitted and not yet finished
        self._closed = False

    @property
    def size(self) -> int:  # threads started so far, never above the cap
        return len(self._threads)

    def submit(self, fn, *args) -> None:
        """Run ``fn(*args)`` on a worker; RuntimeError after shutdown."""
        with self._lock:
            if self._closed:
                raise RuntimeError("cannot submit after shutdown")
            self._unfinished += 1
            if len(self._threads) < min(self._unfinished, self._cap):
                t = threading.Thread(
                    target=self._work, daemon=True,
                    name=f"{self._name}_{len(self._threads)}")
                self._threads.append(t)
                t.start()
            self._tasks.put((fn, args))

    def shutdown(self) -> None:
        """Refuse new work, drop queued work, stop workers as they idle."""
        with self._lock:
            self._closed = True
            for _ in self._threads:
                self._tasks.put(None)

    def _work(self) -> None:
        while True:
            task = self._tasks.get()
            if task is None or self._closed:
                return
            fn, args = task
            try:
                fn(*args)
            except Exception:  # noqa: BLE001 - a worker must survive
                log.exception("task %r failed", fn)
            finally:
                del task, fn, args  # hold no payload while idle
                with self._lock:
                    self._unfinished -= 1
