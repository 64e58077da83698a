"""CoalescingSender: batching semantics, flush, error latching."""

from __future__ import annotations

import sys
import threading
import time
from typing import Optional

import pytest

from repro.errors import ChannelClosedError
from repro.transport.channel import Channel
from repro.transport.coalesce import CoalescingSender
from repro.transport.message import Response


class RecordingChannel(Channel):
    """Records every send/send_batch; optionally blocks or fails."""

    def __init__(self, block_s: float = 0.0,
                 fail_after: Optional[int] = None) -> None:
        self.calls: list[list[Response]] = []
        self.block_s = block_s
        self.fail_after = fail_after
        #: most threads ever inside a write at once (1 = never interleaved)
        self.max_writers = 0
        self._writers = 0
        self._lock = threading.Lock()

    def _record(self, msgs: list) -> None:
        with self._lock:
            if self.fail_after is not None and len(self.calls) >= self.fail_after:
                raise ChannelClosedError("injected send failure")
            self.calls.append(list(msgs))
            self._writers += 1
            self.max_writers = max(self.max_writers, self._writers)
        if self.block_s:
            time.sleep(self.block_s)
        with self._lock:
            self._writers -= 1

    def send(self, msg) -> None:
        self._record([msg])

    def send_batch(self, msgs, max_bytes=None) -> None:
        self._record(msgs)

    def recv(self, timeout=None):  # pragma: no cover - not used
        raise NotImplementedError

    def close(self) -> None:
        pass


def msgs_of(channel: RecordingChannel) -> list[int]:
    return [m.request_id for call in channel.calls for m in call]


class TestCoalescing:
    def test_single_send_goes_through(self):
        ch = RecordingChannel()
        sender = CoalescingSender(ch)
        sender.send(Response(request_id=1))
        assert sender.flush(timeout=5)
        sender.close()
        assert msgs_of(ch) == [1]

    def test_burst_batches_while_writer_is_busy(self):
        # A slow channel keeps the writer inside one flush while the
        # producer floods the queue: the next flush must pick the whole
        # backlog up as one send_batch call.
        ch = RecordingChannel(block_s=0.05)
        sender = CoalescingSender(ch, max_msgs=100)
        for i in range(40):
            sender.send(Response(request_id=i))
        assert sender.flush(timeout=10)
        sender.close()
        assert msgs_of(ch) == list(range(40)), "order preserved"
        assert len(ch.calls) < 40, "backlog coalesced into fewer flushes"
        assert any(len(c) > 1 for c in ch.calls)
        assert sender.batched_flushes >= 1

    def test_max_msgs_bounds_one_flush(self):
        ch = RecordingChannel(block_s=0.05)
        sender = CoalescingSender(ch, max_msgs=8)
        for i in range(30):
            sender.send(Response(request_id=i))
        assert sender.flush(timeout=10)
        sender.close()
        assert msgs_of(ch) == list(range(30))
        assert all(len(c) <= 8 for c in ch.calls)

    def test_many_producer_threads_no_loss_no_dupes(self):
        ch = RecordingChannel(block_s=0.002)
        sender = CoalescingSender(ch, max_msgs=64)
        n_threads, per_thread = 8, 50

        def produce(tid):
            for i in range(per_thread):
                sender.send(Response(request_id=tid * 1000 + i))

        threads = [threading.Thread(target=produce, args=(t,))
                   for t in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert sender.flush(timeout=10)
        sender.close()
        got = msgs_of(ch)
        assert len(got) == len(set(got)) == n_threads * per_thread
        # Per-producer order is preserved even across batches.
        for tid in range(n_threads):
            mine = [r - tid * 1000 for r in got if r // 1000 == tid]
            assert mine == sorted(mine)

    def test_error_latches_and_invokes_callback(self):
        errors = []
        ch = RecordingChannel(fail_after=0)
        sender = CoalescingSender(ch, on_error=errors.append)
        sender.send(Response(request_id=1))
        deadline = time.monotonic() + 5
        while not sender.failed and time.monotonic() < deadline:
            time.sleep(0.01)
        assert sender.failed
        assert len(errors) == 1 and isinstance(errors[0], ChannelClosedError)
        with pytest.raises(ChannelClosedError):
            sender.send(Response(request_id=2))

    def test_close_drains_pending(self):
        ch = RecordingChannel(block_s=0.01)
        sender = CoalescingSender(ch)
        for i in range(10):
            sender.send(Response(request_id=i))
        sender.close()
        assert msgs_of(ch) == list(range(10))
        with pytest.raises(ChannelClosedError):
            sender.send(Response(request_id=99))


class TestWriteThrough:
    """``send(msg, alone=True)``: the sending thread writes when the
    sender is idle; FIFO, batching and the error contract are unchanged."""

    def test_idle_alone_send_writes_on_the_calling_thread(self):
        threads = []

        class WhoChannel(RecordingChannel):
            def send(self, msg):
                threads.append(threading.current_thread())
                super().send(msg)

        ch = WhoChannel()
        sender = CoalescingSender(ch)
        sender.send(Response(request_id=1), alone=True)
        # Already on the channel when send() returns: no flush needed.
        assert msgs_of(ch) == [1]
        assert threads == [threading.current_thread()]
        assert (sender.direct_writes, sender.flushes,
                sender.messages_out, sender.batched_flushes) == (1, 1, 1, 0)
        sender.send(Response(request_id=2))  # plain send: writer thread
        assert sender.flush(timeout=5)
        sender.close()
        assert msgs_of(ch) == [1, 2]
        assert threads[1] is not threading.current_thread()
        assert sender.direct_writes == 1

    @pytest.mark.parametrize("block_s", [0.0, 0.002])
    def test_mixed_producers_no_loss_no_dupes_in_order(self, block_s):
        ch = RecordingChannel(block_s=block_s)
        sender = CoalescingSender(ch, max_msgs=64)
        n_threads, per_thread = 8, 60

        def produce(tid):
            for i in range(per_thread):
                # hinted and plain sends interleaved per thread
                sender.send(Response(request_id=tid * 1000 + i),
                            alone=(i + tid) % 3 != 0)

        threads = [threading.Thread(target=produce, args=(t,))
                   for t in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # force switches inside send()
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert sender.flush(timeout=10)
        sender.close()
        got = msgs_of(ch)
        assert len(got) == len(set(got)) == n_threads * per_thread
        for tid in range(n_threads):
            mine = [r - tid * 1000 for r in got if r // 1000 == tid]
            assert mine == list(range(per_thread))
        assert sender.messages_out == n_threads * per_thread
        assert ch.max_writers == 1, "writes interleaved on the channel"

    def test_alone_send_queues_behind_a_flush_in_progress(self):
        entered, release = threading.Event(), threading.Event()

        class GateChannel(RecordingChannel):
            def _record(self, msgs):
                if not entered.is_set():
                    entered.set()
                    release.wait(5)
                super()._record(msgs)

        ch = GateChannel()
        sender = CoalescingSender(ch)
        sender.send(Response(request_id=1))
        assert entered.wait(5), "writer is now inside the first flush"
        sender.send(Response(request_id=2), alone=True)  # must not block
        sender.send(Response(request_id=3), alone=True)
        assert msgs_of(ch) == [], "nothing overtook the flush in progress"
        release.set()
        assert sender.flush(timeout=5)
        sender.close()
        assert msgs_of(ch) == [1, 2, 3]
        assert sender.direct_writes == 0

    def test_senders_queue_behind_a_write_through_in_progress(self):
        entered, release = threading.Event(), threading.Event()

        class GateChannel(RecordingChannel):
            def send(self, msg):
                if msg.request_id == 1:
                    entered.set()
                    release.wait(5)
                super().send(msg)

        ch = GateChannel()
        sender = CoalescingSender(ch)
        first = threading.Thread(
            target=sender.send, args=(Response(request_id=1),),
            kwargs={"alone": True})
        first.start()
        assert entered.wait(5), "write-through holds the drain role"
        sender.send(Response(request_id=2), alone=True)
        sender.send(Response(request_id=3))
        assert not sender.flush(timeout=0.05), "flush waits for the role"
        assert msgs_of(ch) == []
        release.set()
        first.join(5)
        assert sender.flush(timeout=5)
        sender.close()
        assert msgs_of(ch) == [1, 2, 3]

    def test_failed_write_through_latches_like_a_failed_flush(self):
        errors = []
        ch = RecordingChannel(fail_after=0)
        sender = CoalescingSender(ch, on_error=errors.append)
        with pytest.raises(ChannelClosedError, match="injected"):
            sender.send(Response(request_id=1), alone=True)
        assert sender.failed
        assert len(errors) == 1 and isinstance(errors[0], ChannelClosedError)
        for alone in (False, True):
            with pytest.raises(ChannelClosedError, match="failed earlier"):
                sender.send(Response(request_id=2), alone=alone)
        assert len(errors) == 1, "on_error fires once"
        assert sender.flush(timeout=1)
        sender.close()
        assert msgs_of(ch) == []
