"""Multiprocessing backend: one OS process per machine, socket RPC.

This is the real implementation of the paper's model.  Every machine is
an OS process running an *object server*: a TCP listener on localhost,
an object table, a kernel object, and a thread pool that executes
incoming method requests.  The driver and all machines dial each other
directly — when an FFT object on machine 2 invokes a method on its peer
on machine 5, the request flows 2→5 without touching the driver.

Wire protocol: framed, pickled messages with a zero-copy buffer path
(:mod:`repro.transport`).  Multiple requests may be in flight on one
connection; responses are matched to futures by request id by a
per-connection reader thread.

Process model note (documented in DESIGN.md): the paper creates one OS
process per *object*; here a machine process hosts many logical
processes (one table entry each, with per-object in-flight accounting).
The message path between any two objects on different machines is
identical to the paper's; co-located objects short-circuit through the
dispatcher, as any production runtime would.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import socket
import threading
import time
from typing import Optional

from ..check.checker import make_checker
from ..config import DEFAULT_HOST, Config
from ..errors import (
    ChannelClosedError,
    ChannelTimeoutError,
    MachineDownError,
    ServerOverloadedError,
    TransportError,
)
from ..obs.metrics import snapshot_process
from ..obs.span import Span
from ..obs.tracer import make_tracer
from ..runtime.context import RuntimeContext, context_scope, set_default_context
from ..runtime.futures import RemoteFuture, failed_future
from ..runtime.oid import ObjectRef
from ..runtime.proxy import PING_METHOD
from ..runtime.server import Kernel, MachineCore, ObjectTable
from ..transport.message import (
    KERNEL_OID,
    ErrorResponse,
    Goodbye,
    Hello,
    Request,
    Response,
)
from ..transport.channel import Channel
from ..transport.coalesce import CoalescingSender
from ..transport import pub, shm
from ..transport.socket_channel import SocketChannel, WireOptions, listen_socket
from ..util.hostid import host_fingerprint
from ..util.log import get_logger
from ..util.pool import WorkerPool
from .base import Fabric, complete

log = get_logger("mp")

#: historical per-machine thread-pool size, used when
#: ``Config.serve.workers`` is None (the "auto" default).
DEFAULT_MP_WORKERS = 8

# Extra pool threads beyond ``serve.workers`` — substrate for bodies
# that yielded their policy slot while parked on a remote future (see
# ``ServePolicy.yield_for_wait``) — come from ``serve.yield_headroom``:
# it bounds how many bodies one machine can park concurrently, so users
# size it for their deepest symmetric exchange (docs/SERVING.md).

#: kernel methods served inline on the connection reader thread instead
#: of the kernel lane: guaranteed non-blocking, and they must land
#: even when both kernel-lane threads are stuck in blocking kernel
#: methods (a destroy draining in-flight calls, an untimed quiesce).
_INLINE_KERNEL_METHODS = frozenset({"shutdown", "ping", PING_METHOD})

# ---------------------------------------------------------------------------
# Client side: request/response demultiplexing over cached connections
# ---------------------------------------------------------------------------


class _Connection:
    """One dialed connection with a response-demux reader thread.

    When ``Config.wire.coalesce`` is on, outbound messages go through a
    :class:`~repro.transport.coalesce.CoalescingSender`, so a burst of
    pipelined requests leaves as one BATCH frame; a flush failure fails
    every pending future, same as a broken socket.  The only request
    awaiting a reply is written through on the caller's thread (``alone``;
    oneway sends always queue, or a ``.oneway()`` loop would not batch).
    """

    def __init__(self, channel: Channel, owner: "PeerClient",
                 machine: int, config: Config) -> None:
        self.channel = channel
        self.machine = machine
        self._owner = owner
        self._lock = threading.Lock()
        #: request id -> (future, oid of the call in flight)
        self._pending: dict[int, tuple[RemoteFuture, int]] = {}
        self._dead: Optional[BaseException] = None
        self._sender: Optional[CoalescingSender] = None
        if config.wire.coalesce:
            self._sender = CoalescingSender(
                channel,
                max_msgs=config.wire.coalesce_max_msgs,
                max_bytes=config.wire.coalesce_max_bytes,
                on_error=self._fail_all,
                name=f"oopp-m{machine}")
        self._reader = threading.Thread(
            target=self._read_loop, name=f"oopp-demux-m{machine}", daemon=True)
        self._reader.start()

    def transmit(self, ref: ObjectRef, request: Request,
                 future: Optional[RemoteFuture]) -> None:
        """The socket backends' transmit step: track the call, then
        write it — through when it is the only one awaiting a reply."""
        alone = False
        if future is not None:
            with self._lock:
                if self._dead is not None:
                    raise MachineDownError(str(self._dead),
                                           machine=self.machine, oid=ref.oid)
                self._pending[request.request_id] = (future, ref.oid)
                alone = len(self._pending) == 1
        try:
            if self._sender is not None:
                self._sender.send(request, alone=alone)
            else:
                self.channel.send(request)
        except (ChannelClosedError, TransportError, OSError) as exc:
            err = MachineDownError(
                f"send to machine {self.machine} failed: {exc}",
                machine=self.machine, oid=ref.oid)
            if future is None:
                raise err from exc
            if not future.done():
                future.set_exception(err)

    def _read_loop(self) -> None:
        ctx = self._owner.decode_context
        with context_scope(ctx):
            while True:
                msg = entry = future = None  # no payload (shm) while blocked
                try:
                    msg = self.channel.recv()
                except ChannelTimeoutError:
                    continue  # slow link, not a dead peer: keep reading
                except (ChannelClosedError, TransportError, OSError) as exc:
                    self._fail_all(exc)
                    return
                if isinstance(msg, (Response, ErrorResponse)):
                    with self._lock:
                        entry = self._pending.pop(msg.request_id, None)
                    if entry is None:
                        continue  # response to a cancelled/timed-out call
                    future, _ = entry
                    complete(future, msg)
                elif isinstance(msg, Goodbye):
                    self._fail_all(ChannelClosedError("peer said goodbye"))
                    return
                # Hello/others ignored on an outbound connection.

    def _fail_all(self, exc: BaseException) -> None:
        """Fail every pending future, attaching machine and failed oid."""
        with self._lock:
            if self._dead is None:
                self._dead = exc
            pending = list(self._pending.values())
            self._pending.clear()
        for f, oid in pending:
            try:
                f.set_exception(MachineDownError(
                    f"machine {self.machine} connection lost while "
                    f"object {oid} had a call in flight: {exc}",
                    machine=self.machine, oid=oid))
            except RuntimeError:
                pass  # lost the race against a send-side failure

    @property
    def dead(self) -> bool:
        with self._lock:
            return self._dead is not None

    def close(self) -> None:
        try:
            if self._sender is not None:
                self._sender.send(Goodbye())
                self._sender.close()
            else:
                self.channel.send(Goodbye())
        except (ChannelClosedError, TransportError, OSError):
            pass
        self.channel.close()


class PeerClient:
    """Connection cache toward a set of machines.

    Used by the driver (caller id -1) and by every machine (caller id =
    its machine id) for outbound calls: the owning fabric issues each
    call through the :meth:`_Connection.transmit` of :meth:`connection`.
    """

    def __init__(self, caller: int, decode_context: RuntimeContext,
                 config: Config) -> None:
        self.caller = caller
        self.decode_context = decode_context
        self.config = config
        #: machine id -> fingerprint of the host it runs on (tcp backend;
        #: empty on mp, where every peer is local by construction).
        self.fingerprints: dict[int, str] = {}
        self._addrs: dict[int, tuple[str, int]] = {}
        self._conns: dict[int, _Connection] = {}
        #: machines declared dead by the liveness monitor: fail fast
        #: instead of burning the connect timeout on every call.
        self._down: dict[int, str] = {}
        self._lock = threading.Lock()
        self._closed = False

    def options_for(self, machine: int) -> WireOptions:
        """Wire options for dialing *machine*: the config's fast path,
        minus shm/pub descriptors when the peer lives on another host
        (its fingerprint differs from ours) — those name segments in
        the sender host's ``/dev/shm``."""
        base = WireOptions.from_config(self.config)
        fp = self.fingerprints.get(machine)
        if fp is not None and fp != host_fingerprint():
            return dataclasses.replace(base, shm_enabled=False,
                                       pub_descriptors=False)
        return base

    def set_addrs(self, addrs: dict[int, tuple[str, int]]) -> None:
        with self._lock:
            self._addrs.update(addrs)

    @property
    def known_machines(self) -> list[int]:
        with self._lock:
            return sorted(self._addrs)

    def mark_down(self, machine: int, reason: str) -> None:
        """Declare *machine* dead: fail its pending calls and all future
        calls immediately (liveness monitor and kill_machine call this)."""
        with self._lock:
            if machine in self._down:
                return
            self._down[machine] = reason
            conn = self._conns.pop(machine, None)
        if conn is not None:
            conn._fail_all(MachineDownError(reason, machine=machine))
            conn.channel.close()

    def mark_up(self, machine: int) -> None:
        """Clear a down mark after the backend restarted the machine's
        host (the next call dials the new address)."""
        with self._lock:
            self._down.pop(machine, None)

    def is_down(self, machine: int) -> bool:
        return machine in self._down

    def connection(self, machine: int,
                   oid: Optional[int] = None) -> _Connection:
        """The live connection to *machine*, dialing when there is none;
        :class:`MachineDownError` (naming *oid*, the object the call is
        for) when the machine is down or unreachable."""
        reason = self._down.get(machine)
        if reason is not None:
            raise MachineDownError(
                f"machine {machine} is down: {reason}", machine=machine,
                oid=oid)
        with self._lock:
            if self._closed:
                raise MachineDownError("client closed", machine=machine)
            conn = self._conns.get(machine)
            if conn is not None and not conn.dead:
                return conn
            addr = self._addrs.get(machine)
        if addr is None:
            raise MachineDownError(f"no address known for machine {machine}",
                                   machine=machine)
        try:
            channel: Channel = SocketChannel.connect(
                addr[0], addr[1], timeout=10.0,
                options=self.options_for(machine))
        except TransportError as exc:
            raise MachineDownError(
                f"cannot reach machine {machine} at {addr}: {exc}",
                machine=machine) from exc
        if self.config.fault_plan is not None:
            channel = self.config.fault_plan.wrap(
                channel, label=f"m{self.caller}->m{machine}")
        channel.send(Hello(caller=self.caller))
        conn = _Connection(channel, self, machine, config=self.config)
        with self._lock:
            existing = self._conns.get(machine)
            if existing is not None and not existing.dead:
                conn.close()
                return existing
            self._conns[machine] = conn
        return conn

    def traffic(self) -> dict:
        """Aggregate wire counters over all live connections."""
        with self._lock:
            conns = list(self._conns.values())
        totals = {"frames_in": 0, "bytes_in": 0, "frames_out": 0,
                  "bytes_out": 0, "connections": len(conns)}
        for conn in conns:
            for key, value in conn.channel.stats.items():
                totals[key] += value
        return totals

    def close(self) -> None:
        with self._lock:
            self._closed = True
            conns = list(self._conns.values())
            self._conns.clear()
        for conn in conns:
            conn.close()


# ---------------------------------------------------------------------------
# Server side (runs inside each machine process)
# ---------------------------------------------------------------------------


class MachineKernel(Kernel):
    """Kernel with the mp-specific peer-table method."""

    def __init__(self, machine_id: int, table: ObjectTable,
                 server: "MachineServer") -> None:
        super().__init__(machine_id, table)
        self._server = server

    def set_peers(self, addrs: dict[int, tuple[str, int]],
                  fingerprints: Optional[dict[int, str]] = None) -> bool:
        """Install the cluster address table (driver calls this once).

        *fingerprints* (tcp backend) maps each machine to its host's
        fingerprint so machine→machine calls toward a *foreign* host
        downgrade shm/pub to inline payloads, same as the driver does.
        """
        self._server.outbound.set_addrs(addrs)
        if fingerprints:
            self._server.outbound.fingerprints.update(fingerprints)
        self._server.peer_count = max(self._server.peer_count,
                                      1 + max(addrs, default=-1))
        return True


class MachineFabric(Fabric):
    """The fabric visible to objects hosted on one machine.

    Outbound calls to peers go over sockets; calls targeting the local
    machine short-circuit straight into the dispatcher on the calling
    thread (still fully sequential, no self-connection burned).
    """

    def __init__(self, config: Config, server: "MachineServer") -> None:
        super().__init__(config)
        self._server = server

    @property
    def machine_count(self) -> int:
        return self._server.peer_count

    def _send(self, ref: ObjectRef, method: str, args: tuple, kwargs: dict,
              oneway: bool) -> Optional[RemoteFuture]:
        me = self._server.machine_id
        if ref.machine == me:
            return self._issue(ref, method, args, kwargs, oneway,
                               self._transmit_local, caller=me, local=True)
        conn = self._server.outbound.connection(ref.machine, ref.oid)
        return self._issue(ref, method, args, kwargs, oneway, conn.transmit,
                           caller=me)

    def _transmit_local(self, ref: ObjectRef, request: Request,
                        future: Optional[RemoteFuture]) -> None:
        reply = self._execute_here(self._server.dispatcher, request)
        if reply is not None:
            complete(future, reply)

    def call_async(self, ref: ObjectRef, method: str, args: tuple,
                   kwargs: dict) -> RemoteFuture:
        return self._send(ref, method, args, kwargs, False)

    def call_oneway(self, ref: ObjectRef, method: str, args: tuple,
                    kwargs: dict) -> None:
        self._send(ref, method, args, kwargs, True)


class _ServedConnection:
    """One accepted connection: the reply path (one coalescer, so bursts
    of small responses batch) and the count of requests not yet answered.
    The reply to the *only* one — none running, none in the channel's
    decoded BATCH tail — is written through; shutdown waits on the count.
    """

    def __init__(self, channel: SocketChannel, wire, name: str) -> None:
        self.channel = channel
        self.sender: Optional[CoalescingSender] = None
        if wire.coalesce:
            self.sender = CoalescingSender(
                channel, max_msgs=wire.coalesce_max_msgs,
                max_bytes=wire.coalesce_max_bytes, name=name)
        self._cond = threading.Condition()
        self._unanswered = 0

    def received(self) -> None:
        with self._cond:
            self._unanswered += 1

    def reply(self, msg) -> None:
        with self._cond:
            alone = self._unanswered == 1 and not self.channel.rx_backlog
        try:
            if self.sender is None:
                self.channel.send(msg)
            else:
                self.sender.send(msg, alone=alone)
        finally:
            # Not before the sender has it: drain() closes at zero.
            with self._cond:
                self._unanswered -= 1
                if not self._unanswered:
                    self._cond.notify_all()

    def drain(self, deadline: float) -> None:
        """Wait until every request has its reply on the wire."""
        with self._cond:  # a timeout already past just tests the predicate
            self._cond.wait_for(lambda: not self._unanswered,
                                deadline - time.monotonic())
        if self.sender is not None:
            self.sender.flush(deadline - time.monotonic())


class MachineServer(MachineCore):
    """The object server of one machine process: the machine core plus
    its sockets — a listener, the outbound peer client, worker pools."""

    def __init__(self, machine_id: int, config: Config,
                 bind_host: str = DEFAULT_HOST) -> None:
        self.config = config
        self.peer_count = config.n_machines
        #: this process's span recorder (None when tracing is off); the
        #: driver collects it through the kernel's take_spans method.
        self.tracer = make_tracer(config, node=machine_id)
        #: this process's race checker (None when detection is off); the
        #: driver collects it through the kernel's take_race_reports.
        #: Per-machine detection is complete: an object lives on exactly
        #: one machine and every access to it executes here.
        self.checker = make_checker(config, node=machine_id)
        self.fabric = MachineFabric(config, self)
        self.fabric.tracer = self.tracer
        self.fabric.checker = self.checker
        super().__init__(
            machine_id, self.fabric,
            kernel=lambda mid, table: MachineKernel(mid, table, self))
        self.context = RuntimeContext(fabric=self.fabric, machine_id=machine_id)
        self.outbound = PeerClient(caller=machine_id,
                                   decode_context=self.context, config=config)
        self.listener = listen_socket(bind_host, 0)
        self.port = self.listener.getsockname()[1]
        # serve.workers caps *executing* bodies via the policy's slots;
        # None keeps the historical 8-thread default as the effective
        # limit.  The pool itself gets headroom beyond that: a body
        # parked on a remote future yields its policy slot but still
        # occupies its thread, so without spare threads a symmetric
        # exchange (every worker parked, deposits queued behind them)
        # would starve the pool the policy just freed up.
        pool_size = (config.serve.workers if config.serve.workers is not None
                     else DEFAULT_MP_WORKERS)
        self.workers = WorkerPool(pool_size + config.serve.yield_headroom,
                                  name=f"oopp-m{machine_id}")
        # Kernel calls ride a dedicated lane so shutdown/quiesce/metric
        # gathers land even when every worker is busy or blocked.
        self.kernel_workers = WorkerPool(2, name=f"oopp-m{machine_id}-kernel")
        self._conns: list[_ServedConnection] = []
        self._conn_lock = threading.Lock()

    # -- serving ------------------------------------------------------------

    def serve_forever(self) -> None:
        """Accept connections until the kernel's stop event fires."""
        accept_thread = threading.Thread(target=self._accept_loop,
                                         name="oopp-accept", daemon=True)
        accept_thread.start()
        self.kernel.stop_event.wait()
        # Let in-flight calls finish and every reply (including the one
        # to the shutdown request itself) reach the wire.
        deadline = time.monotonic() + self.config.shutdown_timeout_s
        self.table.quiesce(timeout=self.config.shutdown_timeout_s)
        try:
            self.listener.close()
        except OSError:
            pass
        with self._conn_lock:
            conns = list(self._conns)
        for conn in conns:
            conn.drain(deadline)
            conn.channel.close()
        self.workers.shutdown()
        self.kernel_workers.shutdown()
        self.outbound.close()

    def _accept_loop(self) -> None:
        options = WireOptions.from_config(self.config)
        while not self.kernel.stop_event.is_set():
            try:
                sock, _ = self.listener.accept()
            except OSError:
                return  # listener closed
            conn = _ServedConnection(SocketChannel(sock, options=options),
                                     self.config.wire,
                                     name=f"oopp-m{self.machine_id}-reply")
            with self._conn_lock:
                self._conns.append(conn)
            threading.Thread(target=self._connection_loop, args=(conn,),
                             name="oopp-conn", daemon=True).start()

    def _connection_loop(self, conn: _ServedConnection) -> None:
        channel, reply_send = conn.channel, conn.reply
        try:
            with context_scope(self.context):
                while True:
                    msg = None  # hold no payload (shm) while blocked
                    try:
                        msg = channel.recv()
                    except (ChannelClosedError, TransportError, OSError):
                        return
                    if isinstance(msg, Hello):
                        continue
                    if isinstance(msg, Goodbye):
                        channel.close()
                        return
                    if isinstance(msg, Request):
                        if not msg.oneway:
                            conn.received()
                        if msg.object_id == KERNEL_OID:
                            # shutdown and ping are non-blocking by
                            # construction (set an event / return an
                            # int), so they run inline on this reader
                            # thread: the kernel lane's 2 threads may
                            # both be parked in blocking kernel methods
                            # (destroy's drain wait, an untimed
                            # quiesce), and liveness + shutdown are the
                            # calls the lane exists to guarantee.
                            if msg.method in _INLINE_KERNEL_METHODS:
                                self._serve_request(reply_send, msg)
                                continue
                            self.kernel_workers.submit(
                                self._serve_request, reply_send, msg)
                            continue
                        # Admission happens here, on the reader thread:
                        # the worker pool's internal queue would
                        # otherwise hide unbounded backlog from the
                        # per-object depth bound.
                        try:
                            self.policy.admit(msg.object_id, msg.method)
                        except ServerOverloadedError as exc:
                            self._reply_shed(reply_send, msg, exc)
                            continue
                        try:
                            self.workers.submit(self._serve_request,
                                                reply_send, msg, True)
                        except RuntimeError:  # pool shut down mid-stream
                            self.policy.cancel_admit(msg.object_id)
                            raise
        finally:
            if conn.sender is not None:
                conn.sender.close(timeout=1.0)

    def _reply_shed(self, reply_send, request: Request,
                    exc: ServerOverloadedError) -> None:
        """Reject an unadmitted request straight from the reader thread.

        No worker, no span, no vector clock: the call never reached the
        dispatch layer, which is the whole point of admission control.
        """
        self.kernel.count_call()
        if request.oneway:
            return
        reply = ErrorResponse(
            request_id=request.request_id,
            type_name=f"{type(exc).__module__}.{type(exc).__qualname__}",
            message=str(exc),
            remote_traceback="",
            exception=exc,
            clock=None,
        )
        try:
            reply_send(reply)
        except (ChannelClosedError, TransportError, OSError):
            pass

    def _serve_request(self, reply_send, request: Request,
                       preadmitted: bool = False) -> None:
        reply = self.dispatcher.execute(request, preadmitted=preadmitted)
        if reply is None:
            return
        try:
            reply_send(reply)
        except (ChannelClosedError, TransportError, OSError):
            pass  # caller vanished; nothing to report it to


def _worker_main(machine_id: int, config: Config, bootstrap) -> None:
    """Entry point of a machine process."""
    server = MachineServer(machine_id, config)
    set_default_context(server.context)
    log.info("machine %d up on port %d", machine_id, server.port)
    bootstrap.send(("ready", machine_id, server.port))
    bootstrap.close()
    server.serve_forever()
    log.info("machine %d stopped (%d calls served)", machine_id,
             server.kernel.calls_served)
    # A forked child leaves through os._exit; no atexit sweep will run.
    shm.manager().shutdown()
    pub.registry().shutdown()


# ---------------------------------------------------------------------------
# Driver side
# ---------------------------------------------------------------------------


class DriverFabric(Fabric):
    """Driver side of a socket backend: the machines are
    :class:`MachineServer` instances somewhere, reached through one
    :class:`PeerClient`.  Calling, graceful shutdown and the per-machine
    observability gathers live here; a subclass brings the machines up
    (filling in the client's addresses), watches them, and implements
    :meth:`_reap_machines`.
    """

    def __init__(self, config: Config) -> None:
        super().__init__(config)
        self.tracer = make_tracer(config, node=-1)
        self.checker = make_checker(config, node=-1)
        self._context = RuntimeContext(fabric=self, machine_id=-1)
        self._client = PeerClient(caller=-1, decode_context=self._context,
                                  config=config)

    # -- Fabric interface ---------------------------------------------------

    def _send(self, ref: ObjectRef, method: str, args: tuple, kwargs: dict,
              oneway: bool) -> Optional[RemoteFuture]:
        conn = self._client.connection(ref.machine, ref.oid)
        return self._issue(ref, method, args, kwargs, oneway, conn.transmit)

    def call_async(self, ref: ObjectRef, method: str, args: tuple,
                   kwargs: dict) -> RemoteFuture:
        if self._closed:
            return failed_future(MachineDownError("cluster is shut down"),
                                 label=method)
        self.check_machine(ref.machine)
        try:
            return self._send(ref, method, args, kwargs, False)
        except MachineDownError as exc:
            return failed_future(exc, label=method)

    def call_oneway(self, ref: ObjectRef, method: str, args: tuple,
                    kwargs: dict) -> None:
        self.check_machine(ref.machine)
        self._send(ref, method, args, kwargs, True)

    def _set_peers(self) -> None:
        """Hand every live machine the full peer table (addresses and
        host fingerprints) so object→object calls can flow directly."""
        client = self._client
        futures = [
            self.call_async(self.kernel_ref(m), "set_peers",
                            (dict(client._addrs), dict(client.fingerprints)),
                            {})
            for m in client.known_machines if not client.is_down(m)]
        for f in futures:
            f.result(self.config.startup_timeout_s)

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        # Graceful: destroy hosted objects (running destructor hooks),
        # then ask each machine to stop.  Machines already declared dead
        # are skipped — no point waiting a shutdown timeout on a corpse.
        for machine in range(self.machine_count):
            if self.machine_down(machine):
                continue
            try:
                for verb in ("destroy_all", "shutdown"):
                    self._send(self.kernel_ref(machine), verb, (), {}, False
                               ).result(self.config.shutdown_timeout_s)
            except Exception:  # noqa: BLE001 - teardown
                pass
        self._client.close()
        self._reap_machines()
        # Unpin publications last (Fabric.close): the processes that
        # attached them are gone by now, so the unlink cannot strand a
        # reader.
        super().close()

    def _reap_machines(self) -> None:
        """Wait for the (already shut down) machines' processes to exit,
        killing what lingers."""
        raise NotImplementedError

    # -- observability --------------------------------------------------------

    def _gather(self, verb: str):
        """``(machine, reply)`` of kernel call *verb* on every machine,
        the reply being the :class:`MachineDownError` for a machine
        that is gone.  Machine processes lose their buffers at
        shutdown, so gather before closing the cluster."""
        if self._closed:
            return
        for machine in range(self.machine_count):
            try:
                yield machine, self.kernel_call(machine, verb)
            except MachineDownError as exc:
                yield machine, exc

    def trace_spans(self) -> list:
        """Driver spans + every reachable machine's spans.

        A machine that is down contributes nothing (its spans died with
        it); the driver-side client spans of the lost calls are still
        here, unfinished — that asymmetry is the observable signature
        of the failure.
        """
        spans = super().trace_spans()
        if self.tracer is not None:
            for _, dicts in self._gather("take_spans"):
                if not isinstance(dicts, MachineDownError):
                    spans.extend(Span.from_dict(d) for d in dicts)
        return spans

    def race_reports(self) -> list[dict]:
        """Driver reports + every reachable machine's reports.

        Method executions all happen on the machines, so nearly every
        report comes from there.
        """
        reports = super().race_reports()
        if self.checker is not None:
            for _, taken in self._gather("take_race_reports"):
                if not isinstance(taken, MachineDownError):
                    reports.extend(taken)
        return reports

    def metrics(self) -> dict:
        """Per-process metrics: driver plus each machine (by kernel call).

        A dead machine reports ``{"down": <reason>}`` instead of
        counters — the caller still gets one entry per machine.
        """
        out: dict = {"driver": {**snapshot_process(),
                                "traffic": self.traffic()}}
        for machine, snap in self._gather("obs_metrics"):
            out[f"machine {machine}"] = (
                {"down": str(snap)} if isinstance(snap, MachineDownError)
                else snap)
        return out

    # -- diagnostics ---------------------------------------------------------------

    def traffic(self) -> dict:
        """Driver-side wire counters (frames/bytes in and out)."""
        return self._client.traffic()

    def machine_down(self, machine: int) -> bool:
        """True when the liveness monitor has declared *machine* dead."""
        return self._client.is_down(machine)


#: polling interval of the driver's machine-liveness monitor (seconds).
LIVENESS_POLL_S = 0.2


class MpFabric(DriverFabric):
    """Driver-side fabric over a pool of local machine processes."""

    def __init__(self, config: Config) -> None:
        super().__init__(config)
        self._procs: list[multiprocessing.Process] = []
        self._monitor_stop = threading.Event()
        self._spawn_machines()
        self._monitor = threading.Thread(target=self._monitor_loop,
                                         name="oopp-liveness", daemon=True)
        self._monitor.start()

    def _spawn_machines(self) -> None:
        ctx = multiprocessing.get_context(self.config.mp_start_method)
        pipes = []
        for machine_id in range(self.config.n_machines):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main,
                args=(machine_id, self.config, child_conn),
                name=f"oopp-machine-{machine_id}",
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self._procs.append(proc)
            pipes.append(parent_conn)
        addrs: dict[int, tuple[str, int]] = {}
        deadline = time.monotonic() + self.config.startup_timeout_s
        for machine_id, conn in enumerate(pipes):
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not conn.poll(remaining):
                self._kill_all()
                raise MachineDownError(
                    f"machine {machine_id} did not start within "
                    f"{self.config.startup_timeout_s}s")
            tag, mid, port = conn.recv()
            assert tag == "ready" and mid == machine_id
            addrs[machine_id] = (DEFAULT_HOST, port)
            conn.close()
        self._client.set_addrs(addrs)
        self._set_peers()

    # -- liveness -----------------------------------------------------------

    def _monitor_loop(self) -> None:
        """Poll worker processes; convert a dead worker into fast
        :class:`MachineDownError` instead of a hang on the next call."""
        while not self._monitor_stop.wait(LIVENESS_POLL_S):
            for machine, proc in enumerate(self._procs):
                if not proc.is_alive():
                    self._machine_died(machine, proc)

    def _machine_died(self, machine: int, proc) -> None:
        if self.machine_down(machine):
            return
        log.warning("machine %d (pid %s) died, exitcode %s", machine,
                    proc.pid, proc.exitcode)
        self._client.mark_down(
            machine,
            f"worker process (pid {proc.pid}) died with exitcode "
            f"{proc.exitcode}")

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        # The monitor goes first: machines exiting on request are not deaths.
        self._monitor_stop.set()
        self._monitor.join(timeout=2.0)
        super().close()

    def _reap_machines(self) -> None:
        deadline = time.monotonic() + self.config.shutdown_timeout_s
        for proc in self._procs:
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
        self._kill_all()

    def _kill_all(self) -> None:
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
        for proc in self._procs:
            if proc.is_alive():
                proc.join(timeout=2.0)
            if proc.is_alive():  # pragma: no cover - last resort
                proc.kill()
                proc.join(timeout=2.0)

    # -- diagnostics ---------------------------------------------------------------

    def machine_pids(self) -> list[Optional[int]]:
        return [p.pid for p in self._procs]

    def machine_alive(self) -> list[bool]:
        return [p.is_alive() for p in self._procs]

    def kill_machine(self, machine: int, *, hard: bool = False) -> None:
        """Kill one machine process (failure-injection tests).

        ``hard=True`` sends SIGKILL — the worker gets no chance to flush
        or say goodbye, the closest stand-in for a machine losing power.
        The machine is immediately declared down, so pending and future
        calls fail with :class:`MachineDownError` rather than hanging.
        """
        self.check_machine(machine)
        proc = self._procs[machine]
        if proc.is_alive():
            log.warning("killing machine %d (pid %s, hard=%s)", machine,
                        proc.pid, hard)
            if hard:
                proc.kill()
            else:
                proc.terminate()
            proc.join(timeout=5.0)
        self._machine_died(machine, proc)
