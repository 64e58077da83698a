"""Per-layer metrics, measured from outside.

Three sources, all public:

* **replay** — the call a workload sends most (its :class:`Sample`) is
  rebuilt as the real ``Request``/``Response`` objects and pushed
  through each layer's public functions in isolation, on the driver's
  cpu, for >= 2000 iterations (fewer when one iteration takes
  milliseconds); the metric is the median;
* **counters** — ``cluster.metrics()``, ``cluster.fabric.traffic()`` and
  ``cluster.on(m).stats()`` read after the workload ran;
* **spans** — the program's existing client/server span pair from the
  traced pass, reduced to stage medians.

Every replay is wrapped in a benchmark-side span kept in memory
(:class:`Recorder`) and written out by ``run.py`` at the end.  A layer
a workload never drives (shm on ``call_seq``, migration outside
``serve_migrate``, ...) reports 0.
"""

from __future__ import annotations

import io
import queue
import socket
import statistics
import threading
import time
from contextlib import contextmanager
from typing import Callable, Optional

import numpy as np

import repro as oopp
from repro.runtime.futures import RemoteFuture, completed_future
from repro.runtime.protocol import call_header_cache
from repro.runtime.proxy import GETATTR_METHOD, SETATTR_METHOD
from repro.runtime.server import Dispatcher, Kernel, ObjectTable, ServePolicy
from repro.transport import frames, pub, serde, shm
from repro.transport.channel import Channel
from repro.transport.coalesce import CoalescingSender
from repro.transport.message import (Request, Response, message_to_payload,
                                     payload_to_message)
from repro.transport.socket_channel import (SocketChannel, WireOptions,
                                            listen_socket)

from .harness import percentile
from .workloads import PAGE_BYTES, Sample

ITERATIONS = 2000
#: iterations timed together, so the clock's own cost (~0.1 us) does
#: not drown sub-microsecond functions.
BATCH = 50
#: wall-clock cap per replay, for functions that take milliseconds.
BUDGET_S = 0.25
MIN_ITERATIONS = 5

#: which replays run inside which: a layer's self time is its median
#: minus the medians of the layers it covers.
COVERS = {
    "socket.oneway_us": ("protocol.call_encode_us", "frames.write_us",
                         "frames.read_us", "serde.req_loads_us"),
    "server.execute_us": ("server.execute_nopolicy_us",),
    "server.execute_nopolicy_us": ("server.table_us",),
    "inline.call_us": ("inline.nocopy_call_us",),
    "inline.nocopy_call_us": ("server.execute_us",),
    "fft.transform_ms": ("fft.kernel_ms",),
}


class Recorder:
    """Benchmark-side spans: name, start, end, parent, request id."""

    def __init__(self, request: str) -> None:
        self.request = request
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._stack[-1] if self._stack else None,
                  "request": self.request, "start": time.perf_counter(),
                  "end": None}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()


def bench(fn: Callable[[], object], *, batch: Optional[int] = None) -> float:
    """Median seconds per call of *fn*, timed in batches of *batch*
    calls (default: about a millisecond's worth, at most ``BATCH``)."""
    clock = time.perf_counter
    fn()  # first-call costs (imports, caches) are not the steady state
    t0 = clock()
    fn()
    once = max(clock() - t0, 1e-9)
    if batch is None:
        batch = max(1, min(BATCH, int(1e-3 / once)))
    per_call: list[float] = []
    deadline = clock() + BUDGET_S
    done = 0
    while done < ITERATIONS and (clock() < deadline or done < MIN_ITERATIONS):
        t0 = clock()
        for _ in range(batch):
            fn()
        per_call.append((clock() - t0) / batch)
        done += batch
    return statistics.median(per_call)


def _loopback_pair(options: Optional[WireOptions] = None
                   ) -> tuple[SocketChannel, SocketChannel]:
    server = listen_socket()
    try:
        a = socket.create_connection(server.getsockname()[:2])
        b, _ = server.accept()
    finally:
        server.close()
    return SocketChannel(a, options=options), SocketChannel(b)


class _Host:
    """One in-process machine (table + kernel + policy + dispatcher)
    hosting the sample's object, built from the same public parts the
    inline backend assembles."""

    def __init__(self, sample: Sample, with_policy: bool) -> None:
        self.table = ObjectTable()
        self.kernel = Kernel(0, self.table)
        self.policy = (ServePolicy(oopp.ServeConfig(), machine=0)
                       if with_policy else None)
        self.kernel.policy = self.policy
        self.dispatcher = Dispatcher(0, self.table, self.kernel, None,
                                     policy=self.policy)
        self.instance = sample.cls(*sample.ctor_args)
        self.oid = self.table.add(self.instance)


# ---------------------------------------------------------------------------
# Replay of the workload's own message
# ---------------------------------------------------------------------------


def replay(sample: Sample, rec: Recorder) -> dict[str, float]:
    """Message-shaped layer metrics for *sample*."""
    out: dict[str, float] = {}
    host = _Host(sample, with_policy=True)
    request = Request(request_id=1, object_id=host.oid, method=sample.method,
                      args=sample.args, caller=-1)
    response = host.dispatcher.execute(request)
    if not isinstance(response, Response):
        raise RuntimeError(f"sample call failed in replay: {response}")

    with rec.span("transport.serde"):
        req_header, req_bufs = serde.dumps(message_to_payload(request))
        resp_header, resp_bufs = serde.dumps(message_to_payload(response))
        out["serde.req_header_bytes"] = len(req_header)
        out["serde.oob_buffers"] = len(req_bufs)
        for name, fn in (
                ("serde.req_dumps_us",
                 lambda: serde.dumps(message_to_payload(request))),
                ("serde.req_loads_us",
                 lambda: payload_to_message(
                     *serde.loads(req_header, req_bufs))),
                ("serde.resp_dumps_us",
                 lambda: serde.dumps(message_to_payload(response))),
                ("serde.resp_loads_us",
                 lambda: payload_to_message(
                     *serde.loads(resp_header, resp_bufs)))):
            with rec.span(name):
                out[name] = bench(fn) * 1e6

    with rec.span("runtime.protocol"), rec.span("protocol.call_encode_us"):
        def call_encode():
            tail, bufs = serde.dumps((request.request_id, None, None,
                                      request.args, request.kwargs))
            return call_header_cache.prefix(
                request.object_id, request.method, False, -1) + tail, bufs

        out["protocol.call_encode_us"] = bench(call_encode) * 1e6

    with rec.span("transport.frames"):
        out.update(_frames(req_header, req_bufs, rec))

    with rec.span("transport.coalesce"), rec.span("coalesce.handoff_us"):
        out["coalesce.handoff_us"] = _handoff(request) * 1e6

    with rec.span("transport.socket_channel"):
        out.update(_socket(request, req_header, req_bufs, rec))

    with rec.span("runtime.server"):
        out.update(_server(sample, request, host, rec))
    return out


def _batchable(header: bytes, buffers: list) -> bool:
    """The coalescer never packs a message above its byte budget, so
    the batch replays are skipped (0) for such samples."""
    size = len(header) + sum(memoryview(b).nbytes for b in buffers)
    return size <= oopp.WireConfig().coalesce_max_bytes


def _frames(header: bytes, buffers: list, rec: Recorder) -> dict[str, float]:
    out: dict[str, float] = {}
    sink: list = []
    with rec.span("frames.write_us"):
        def write():
            sink.clear()
            frames.write_frame(sink.append, header, buffers)

        out["frames.write_us"] = bench(write) * 1e6
    wire = io.BytesIO(b"".join(bytes(p) for p in sink))
    with rec.span("frames.read_us"):
        def read():
            wire.seek(0)
            return frames.read_frame(wire.read)

        out["frames.read_us"] = bench(read) * 1e6
    out["frames.pack_batch_us_per_msg"] = 0.0
    out["frames.split_batch_us_per_msg"] = 0.0
    if _batchable(header, buffers):
        items = [(frames.KIND_MSG, header, list(buffers),
                  [frames.BUF_INLINE] * len(buffers))] * 64
        with rec.span("frames.pack_batch_us_per_msg"):
            out["frames.pack_batch_us_per_msg"] = (
                bench(lambda: frames.pack_batch(items), batch=5) / 64 * 1e6)
        packed = frames.pack_batch(items)
        with rec.span("frames.split_batch_us_per_msg"):
            out["frames.split_batch_us_per_msg"] = (
                bench(lambda: frames.split_batch(*packed), batch=5)
                / 64 * 1e6)
    return out


class _ArrivalChannel(Channel):
    """A channel that only notes when the writer thread reached it."""

    def __init__(self) -> None:
        self.arrived_at = 0.0
        self.arrived = threading.Event()

    def send(self, msg) -> None:
        self.arrived_at = time.perf_counter()
        self.arrived.set()

    def close(self) -> None:
        pass


def _handoff(request: Request) -> float:
    """``CoalescingSender.send`` until the writer thread hands the
    message to its channel: the thread hop alone, no encoding."""
    channel = _ArrivalChannel()
    sender = CoalescingSender(channel, name="perf-handoff")
    samples: list[float] = []
    try:
        for _ in range(ITERATIONS + 20):
            channel.arrived.clear()
            t0 = time.perf_counter()
            sender.send(request)
            if not channel.arrived.wait(5.0):
                raise RuntimeError("coalescer writer never ran")
            samples.append(channel.arrived_at - t0)
    finally:
        sender.close()
    return statistics.median(samples[20:])


def _socket(request: Request, header: bytes, buffers: list,
            rec: Recorder) -> dict[str, float]:
    """One message ``send`` -> ``recv`` over a loopback pair with the
    shipped wire options (cached headers; shm above its threshold)."""
    out: dict[str, float] = {"socket.batch64_us_per_msg": 0.0}
    tx, rx = _loopback_pair(WireOptions.from_config(oopp.Config()))
    try:
        with rec.span("socket.oneway_us"):
            def oneway():
                tx.send(request)
                return rx.recv(5.0)

            out["socket.oneway_us"] = bench(oneway) * 1e6
        if _batchable(header, buffers):
            batch = [request] * 64
            with rec.span("socket.batch64_us_per_msg"):
                def batch64():
                    tx.send_batch(batch)
                    for _ in batch:
                        rx.recv(5.0)

                out["socket.batch64_us_per_msg"] = (
                    bench(batch64, batch=5) / 64 * 1e6)
    finally:
        tx.close()
        rx.close()
    return out


def _server(sample: Sample, request: Request, host: _Host,
            rec: Recorder) -> dict[str, float]:
    out: dict[str, float] = {}
    with rec.span("server.execute_us"):
        out["server.execute_us"] = bench(
            lambda: host.dispatcher.execute(request)) * 1e6
    bare = _Host(sample, with_policy=False)
    bare_request = Request(request_id=1, object_id=bare.oid,
                           method=sample.method, args=sample.args)
    with rec.span("server.execute_nopolicy_us"):
        out["server.execute_nopolicy_us"] = bench(
            lambda: bare.dispatcher.execute(bare_request)) * 1e6
    policy, oid, instance = host.policy, host.oid, host.instance

    def admit_enter_exit(method: str) -> None:
        policy.admit(oid, method)
        policy.exit(policy.enter(oid, instance, method, preadmitted=True))

    # The implicit attribute read/write are a reader and a writer on
    # every class, whatever the sample's own method is.
    with rec.span("server.policy_read_us"):
        out["server.policy_read_us"] = bench(
            lambda: admit_enter_exit(GETATTR_METHOD)) * 1e6
    with rec.span("server.policy_write_us"):
        out["server.policy_write_us"] = bench(
            lambda: admit_enter_exit(SETATTR_METHOD)) * 1e6
    with rec.span("server.table_us"):
        def table():
            host.table.checkout(oid)
            host.table.checkin(oid)

        out["server.table_us"] = bench(table) * 1e6
    return out


def issue(cluster, sample: Sample, rec: Recorder) -> dict[str, float]:
    """``obj.method.future(*args)`` until it returns, on the live mp
    cluster: what the send loop pays per call on the caller's thread."""
    obj = cluster.on(0).new(sample.cls, *sample.ctor_args)
    fire = getattr(obj, sample.method).future
    clock = time.perf_counter
    samples: list[float] = []
    with rec.span("runtime.proxy"), rec.span("proxy.issue_us"):
        deadline = clock() + BUDGET_S
        while len(samples) < 500 and (clock() < deadline
                                      or len(samples) < MIN_ITERATIONS):
            t0 = clock()
            future = fire(*sample.args)
            t1 = clock()
            future.result(60.0)
            samples.append(t1 - t0)
    oopp.destroy(obj)
    return {"proxy.issue_us": statistics.median(samples) * 1e6}


# ---------------------------------------------------------------------------
# Fixed-size replays (the same on every workload)
# ---------------------------------------------------------------------------


def futures(rec: Recorder) -> dict[str, float]:
    out: dict[str, float] = {}
    with rec.span("runtime.futures"):
        done = completed_future(1)
        with rec.span("futures.done_result_us"):
            out["futures.done_result_us"] = bench(done.result) * 1e6
        with rec.span("futures.wake_us"):
            out["futures.wake_us"] = _wake() * 1e6
    return out


def _wake() -> float:
    """``set_result`` on one thread until ``result()`` returns on another."""
    handoff: queue.Queue = queue.Queue()
    completed_at = [0.0]

    def completer() -> None:
        while (future := handoff.get()) is not None:
            time.sleep(0.0002)  # let the waiter park inside result()
            completed_at[0] = time.perf_counter()
            future.set_result(1)

    thread = threading.Thread(target=completer, name="perf-wake")
    thread.start()
    samples: list[float] = []
    try:
        for _ in range(300):
            future = RemoteFuture(label="wake")
            handoff.put(future)
            future.result(5.0)
            samples.append(time.perf_counter() - completed_at[0])
    finally:
        handoff.put(None)
        thread.join()
    return statistics.median(samples[20:])


def bulk(rec: Recorder) -> dict[str, float]:
    """16 MiB through shm, through the bare socket, and through pub."""
    out: dict[str, float] = {}
    payload = np.arange(PAGE_BYTES // 8, dtype=np.float64)
    view = memoryview(payload).cast("B")
    mgr = shm.manager()

    with rec.span("transport.shm"):
        exports: list[float] = []
        attaches: list[float] = []
        for _ in range(12):
            t0 = time.perf_counter()
            seg = shm.export_buffer(view)
            t1 = time.perf_counter()
            name, size = shm.unpack_descriptor(seg.descriptor)
            got = mgr.attach(name, size)
            t2 = time.perf_counter()
            del got
            seg.commit()
            mgr.release(name)  # receiver-owned: unlinks the segment
            exports.append(t1 - t0)
            attaches.append(t2 - t1)
        out["shm.export_ms"] = statistics.median(exports[2:]) * 1e3
        out["shm.attach_ms"] = statistics.median(attaches[2:]) * 1e3

    with rec.span("transport.socket_channel"), rec.span("socket.bulk_MBps"):
        out["socket.bulk_MBps"] = _bulk_socket(payload)

    with rec.span("transport.pub"):
        registry = pub.registry()
        publishes: list[float] = []
        for _ in range(5):
            t0 = time.perf_counter()
            handle = registry.publish(payload, backing="shm")
            publishes.append(time.perf_counter() - t0)
            handle.unpublish()
        out["pub.publish_ms"] = statistics.median(publishes) * 1e3
        # The attach-table hit does not depend on the backing; a local
        # one spares this process resolving out of its own live segment.
        handle = registry.publish(payload, backing="local")
        descriptor = bytes(handle.descriptor)
        out["pub.descriptor_bytes"] = len(descriptor)
        registry.resolve(descriptor, 0)  # the first attach decodes
        with rec.span("pub.resolve_us"):
            out["pub.resolve_us"] = bench(
                lambda: registry.resolve(descriptor, 0)) * 1e6
        registry.shutdown()  # unpins, and drops the attached copy
    return out


def _bulk_socket(payload: np.ndarray) -> float:
    """16 MiB inline (shm off) over a loopback pair, MB/s."""
    tx, rx = _loopback_pair(WireOptions())
    request = Request(request_id=1, object_id=1, method="put",
                      args=(payload,))
    received = threading.Semaphore(0)
    rounds = 8

    def receiver() -> None:
        for _ in range(rounds):
            rx.recv(30.0)
            received.release()

    thread = threading.Thread(target=receiver, name="perf-bulk-rx")
    thread.start()
    samples: list[float] = []
    try:
        for _ in range(rounds):
            t0 = time.perf_counter()
            tx.send(request)
            received.acquire()
            samples.append(time.perf_counter() - t0)
    finally:
        thread.join(30.0)
        tx.close()
        rx.close()
    return payload.nbytes / 1e6 / statistics.median(samples[1:])


# ---------------------------------------------------------------------------
# The same call on the other backends
# ---------------------------------------------------------------------------


def backends(sample: Sample, rec: Recorder) -> dict[str, float]:
    out: dict[str, float] = {}

    def call_us(cluster) -> float:
        method = getattr(cluster.on(0).new(sample.cls, *sample.ctor_args),
                         sample.method)
        return bench(lambda: method(*sample.args)) * 1e6

    with rec.span("backends.inline"):
        with rec.span("inline.call_us"), \
                oopp.Cluster(n_machines=1, backend="inline") as cluster:
            out["inline.call_us"] = call_us(cluster)
        with rec.span("inline.nocopy_call_us"), \
                oopp.Cluster(n_machines=1, backend="inline",
                             inline_copy=False) as cluster:
            out["inline.nocopy_call_us"] = call_us(cluster)

    with rec.span("backends.tcp"), rec.span("tcp.call_p50_us"), \
            oopp.Cluster(n_machines=1, backend="tcp",
                         call_timeout_s=30.0) as cluster:
        out["tcp.call_p50_us"] = call_us(cluster)

    with rec.span("backends.sim"), rec.span("sim.call_us"), \
            oopp.Cluster(n_machines=2, backend="sim") as cluster:
        method = getattr(cluster.on(1).new(sample.cls, *sample.ctor_args),
                         sample.method)
        engine = cluster.fabric.engine
        method(*sample.args)
        calls = 20
        t0 = engine.now
        for _ in range(calls):
            method(*sample.args)
        out["sim.call_us"] = (engine.now - t0) / calls * 1e6
    return out


# ---------------------------------------------------------------------------
# Counters and spans
# ---------------------------------------------------------------------------


def counter_metrics(before: dict, after: dict, ops: int) -> dict:
    """Per-call and per-transfer ratios from two
    :func:`~perf.harness.snapshot` reads;
    a transfer is one shm segment attached by its receiver."""
    def total(snap: dict, group: str, key: str) -> float:
        return sum(proc.get(group, {}).get(key, 0)
                   for proc in snap["metrics"].values()
                   if isinstance(proc, dict))

    def delta(group: str, key: str) -> float:
        return total(after, group, key) - total(before, group, key)

    flushes = delta("coalesce", "flushes")
    xfers = delta("shm", "segments_attached_total")
    hits, misses = delta("header_cache", "hits"), delta("header_cache",
                                                        "misses")
    traffic = {k: after["traffic"][k] - before["traffic"][k]
               for k in ("bytes_in", "bytes_out", "frames_in", "frames_out")}
    socket_bytes = traffic["bytes_in"] + traffic["bytes_out"]
    return {
        "coalesce.msgs_per_flush":
            delta("coalesce", "messages_out") / flushes if flushes else 0.0,
        "header_cache.hit_ratio":
            hits / (hits + misses) if hits + misses else 0.0,
        "socket.bytes_per_call": socket_bytes / ops if ops else 0.0,
        "socket.frames_per_call":
            (traffic["frames_in"] + traffic["frames_out"]) / ops
            if ops else 0.0,
        "shm.copy_bytes_per_xfer":
            delta("shm", "bytes_copied") / xfers if xfers else 0.0,
        "shm.socket_bytes_per_xfer": socket_bytes / xfers if xfers else 0.0,
    }


def reduce_spans(spans: list) -> dict[str, float]:
    """Stage medians from the program's client/server span pairs (us).

    ``CLOCK_MONOTONIC`` shares its epoch across processes on one host,
    so the cross-process stages (out_wire, back_wire) are meaningful.
    """
    clients = {s.span_id: s for s in spans
               if s.kind == "client" and s.error is None}
    stages: dict[str, list[float]] = {
        "span.send_queue_us": [], "span.out_wire_us": [],
        "span.server_us": [], "span.reply_us": [], "span.back_wire_us": []}
    for server in spans:
        client = clients.get(server.parent_id)
        if server.kind != "server" or client is None or server.error:
            continue
        stamps = (client.t_queued, client.t_sent, server.t_received,
                  server.t_executed, server.t_replied, client.t_replied)
        if None in stamps:
            continue
        queued, sent, received, executed, replied, woken = stamps
        stages["span.send_queue_us"].append(sent - queued)
        stages["span.out_wire_us"].append(received - sent)
        stages["span.server_us"].append(executed - received)
        stages["span.reply_us"].append(replied - executed)
        stages["span.back_wire_us"].append(woken - replied)
    return {name: percentile(values, 50) * 1e6 if values else 0.0
            for name, values in stages.items()}


def self_times(values: dict[str, float]) -> list[tuple[str, float, float]]:
    """``(layer, median, self)`` rows: a layer minus what it covers."""
    rows = []
    for name, covered in COVERS.items():
        if name in values:
            inner = sum(values.get(c, 0.0) for c in covered)
            rows.append((name, values[name], values[name] - inner))
    return rows


def budget(values: dict[str, float], call_p50_us: float) -> dict[str, float]:
    """Sum of the blocking-path layer medians against the measured call.

    ``socket.oneway_us`` already holds encode, frame, syscalls and
    decode of one direction; the reply is taken to cost the same.
    """
    attributed = (values["proxy.issue_us"] + 2 * values["coalesce.handoff_us"]
                  + 2 * values["socket.oneway_us"]
                  + values["server.execute_us"] + values["futures.wake_us"])
    return {"budget.attributed_us": attributed,
            "budget.unattributed_us": call_p50_us - attributed}
