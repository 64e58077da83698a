"""Write coalescing: pack bursts of small sends into one syscall.

The runtime issues pipelined requests from many threads at once (the
paper's loops of ``device.write(page).future()``), and each
``channel.send`` costs a full syscall.  :class:`CoalescingSender` puts a
queue and a dedicated writer thread in front of the channel: while the
writer is inside ``sendall`` for one flush, further sends pile up in the
queue — the GIL is released during the syscall — and the next drain
ships them all as a single ``KIND_BATCH`` frame.  Batching therefore
*emerges from backpressure*: a busy connection amortizes the syscall
across the whole burst.

Write-through (Nagle's rule at the message layer): a caller whose
message is the only thing in flight on the connection passes
``alone=True``; if the sender is idle too (queue empty, nobody draining)
that thread takes the exclusive drain role and writes to the channel
itself, saving the writer-thread hop.  docs/WIRE.md: the FIFO argument.

Error contract: a failed flush latches the sender closed, invokes
``on_error`` once (the mp backend uses it to fail all pending futures on
the connection), and every queued-but-unsent message is lost — exactly
the semantics of a dropped socket, which the retry layer already
handles per idempotent call.  A failed write-through does the same and
also raises to its caller.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Callable, Optional

from ..errors import ChannelClosedError
from ..obs.metrics import counters
from .channel import Channel
from .message import Message


class CoalescingSender:
    """A send-side front for a :class:`~repro.transport.channel.Channel`."""

    def __init__(self, channel: Channel, *, max_msgs: int = 128,
                 max_bytes: int = 1 << 18,
                 on_error: Optional[Callable[[BaseException], None]] = None,
                 name: str = "coalesce") -> None:
        self._channel = channel
        self._max_msgs = max(1, max_msgs)
        self._max_bytes = max_bytes
        self._on_error = on_error
        self._queue: deque[Message] = deque()
        self._cond = threading.Condition()
        self._closed = False
        self._error: Optional[BaseException] = None
        self._draining = False
        #: diagnostics: how many flushes shipped more than one message.
        self.flushes = 0
        self.batched_flushes = 0
        self.messages_out = 0
        #: flushes of one message written by the sending thread itself.
        self.direct_writes = 0
        self._writer = threading.Thread(target=self._drain_loop,
                                        name=f"{name}-writer", daemon=True)
        self._writer.start()

    # -- producer side -----------------------------------------------------

    def send(self, msg: Message, *, alone: bool = False) -> None:
        """Enqueue *msg* for the writer (returns before it hits the wire);
        *alone* on an idle sender, write it through on this thread."""
        with self._cond:
            if self._error is not None:
                raise ChannelClosedError(
                    f"send failed earlier: {self._error}") from self._error
            if self._closed:
                raise ChannelClosedError("sender closed")
            if not alone or self._queue or self._draining:
                self._queue.append(msg)
                self._cond.notify()
                return
            self._draining = True
        self._write([msg], direct=True)

    def flush(self, timeout: Optional[float] = None) -> bool:
        """Block until everything enqueued so far has been handed to the
        channel (or *timeout* elapses); True on success."""
        with self._cond:
            return self._cond.wait_for(
                lambda: (not self._queue and not self._draining)
                or self._error is not None or self._closed,
                timeout=timeout)

    def close(self, timeout: Optional[float] = 5.0) -> None:
        """Drain outstanding messages, then stop the writer."""
        self.flush(timeout)
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        self._writer.join(timeout)

    @property
    def failed(self) -> bool:
        with self._cond:
            return self._error is not None

    # -- drain role ----------------------------------------------------------

    def _write(self, batch: list, direct: bool = False) -> None:
        """Ship *batch* and release the drain role the caller took; a
        failure is latched, reported to ``on_error`` and re-raised."""
        try:
            if len(batch) == 1:
                self._channel.send(batch[0])
            else:
                self._channel.send_batch(batch, self._max_bytes)
                self.batched_flushes += 1
            self.flushes += 1
            self.messages_out += len(batch)
            # Mirror into the process-wide registry so
            # cluster.metrics() sees batch occupancy across every
            # sender (per-instance counters die with the connection).
            c = counters()
            c.inc("coalesce.flushes")
            c.inc("coalesce.messages_out", len(batch))
            if direct:
                self.direct_writes += 1
                c.inc("coalesce.direct_writes")
            elif len(batch) > 1:
                c.inc("coalesce.batched_flushes")
                c.inc("coalesce.batched_messages", len(batch))
        except BaseException as exc:  # noqa: BLE001 - latch any failure
            with self._cond:
                self._error = exc
                self._queue.clear()
            if self._on_error is not None:
                try:
                    self._on_error(exc)
                except Exception:  # noqa: BLE001 - callback best effort
                    pass
            raise
        finally:
            with self._cond:
                self._draining = False
                self._cond.notify_all()  # flush() waiters, or the writer

    def _drain_loop(self) -> None:
        while True:
            with self._cond:
                self._cond.wait_for(
                    lambda: not self._draining
                    and (self._queue or self._closed))
                if not self._queue:
                    return  # closed and drained
                batch = []
                while self._queue and len(batch) < self._max_msgs:
                    batch.append(self._queue.popleft())
                self._draining = True
            try:
                self._write(batch)
            except BaseException:  # noqa: BLE001 - latched by _write
                return
