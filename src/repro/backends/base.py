"""Abstract fabric: the transport-independent calling convention.

A fabric knows how to deliver a method execution request to an object
reference and complete a future with the outcome.  Everything else in
the runtime (proxies, groups, persistence, the Cluster facade) is written
against this interface and therefore works identically on all backends.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Optional

from ..config import Config, ConfigError
from ..errors import (NoSuchMachineError, ObjectMovedError,
                      RemoteExecutionError, SerializationError)
from ..obs.metrics import counters, snapshot_process
from ..obs.tracer import current_span_id
from ..runtime.futures import RemoteFuture, retry_call
from ..runtime.oid import ObjectRef, class_spec
from ..runtime.proxy import Proxy, is_idempotent
from ..transport import pub, serde
from ..transport.message import (KERNEL_OID, ErrorResponse, Request,
                                 Response)
from ..util.ids import IdAllocator


def _approx_nominal(value: Any, protocol: int) -> int:
    """Cheap transported-size estimate for the auto-publish threshold.

    Exact for declared nominals and raw byte containers; falls back to
    the true encoded size (out-of-band buffers are counted as views, not
    copied) for everything else.  Unpicklable values estimate as 0 —
    they will fail later with a proper error on the call path.
    """
    declared = getattr(value, serde.NOMINAL_ATTR, None)
    if declared is not None:
        return int(declared)
    if value is None or isinstance(value, (bool, int, float, complex)):
        return 32
    if isinstance(value, (bytes, bytearray)):
        return len(value)
    if isinstance(value, memoryview):
        return value.nbytes
    if isinstance(value, str):
        return 2 * len(value)
    try:
        return serde.encoded_size(value, protocol)
    except SerializationError:
        return 0


def exception_from_error(err: ErrorResponse) -> BaseException:
    """Materialize the caller-side exception for a remote failure.

    When the original exception survived pickling we re-raise *it* so
    application code can catch the natural type (the paper's transparent
    semantics); the remote traceback rides along in
    ``__oopp_remote_traceback__``.  Otherwise a
    :class:`RemoteExecutionError` carries the details.
    """
    if err.exception is not None:
        exc = err.exception
        try:
            exc.__oopp_remote_traceback__ = err.remote_traceback
        except AttributeError:  # exceptions with __slots__
            pass
        return exc
    return RemoteExecutionError(
        f"remote method raised {err.type_name}: {err.message}",
        remote_type_name=err.type_name,
        remote_traceback=err.remote_traceback,
    )


def complete(future: RemoteFuture, reply: "Response | ErrorResponse") -> None:
    """Wake the caller: the last step of every call, on every backend.

    The reply's clock is attached before completion so a consumer woken
    by ``set_result`` always sees it.
    """
    future._check_clock = reply.clock
    if type(reply) is Response:
        future.set_result(reply.value)
    else:
        future.set_exception(exception_from_error(reply))


def _close_client_span(tracer, span, future: RemoteFuture) -> None:
    exc = future.exception(0)
    tracer.finish_client(
        span, error=None if exc is None else type(exc).__name__)


#: a backend's *transmit* step: carry ``request`` toward ``ref`` and
#: arrange for :func:`complete` to fire on ``future`` (``None`` for a
#: oneway call) when the reply is in.
Transmit = Callable[[ObjectRef, Request, Optional[RemoteFuture]], None]


class Fabric:
    """Base class for all backends."""

    #: how a waiter blocks: the future class :meth:`_issue` creates
    #: (the sim backend substitutes one that waits in simulated time).
    new_future: Callable[..., RemoteFuture] = RemoteFuture

    def __init__(self, config: Config) -> None:
        config.validate()
        self.config = config
        self._closed = False
        self._request_ids = IdAllocator()
        #: driver-side span recorder; concrete backends create one via
        #: :func:`repro.obs.tracer.make_tracer` when ``config.trace`` is set.
        self.tracer = None
        #: driver-side race checker; concrete backends create one via
        #: :func:`repro.check.make_checker` when ``config.check`` enables
        #: race detection (see :mod:`repro.check`).
        self.checker = None
        #: publications pinned through this fabric, unpinned on close.
        self._publications: dict[str, pub.Publication] = {}

    # -- topology ---------------------------------------------------------

    @property
    def machine_count(self) -> int:
        return self.config.n_machines

    @property
    def closed(self) -> bool:
        return self._closed

    def check_machine(self, machine: int) -> int:
        if not (0 <= machine < self.machine_count):
            raise NoSuchMachineError(
                f"machine {machine} does not exist "
                f"(cluster has machines 0..{self.machine_count - 1})")
        return machine

    def host_of(self, machine: int) -> str:
        """The address of the host carrying *machine*.  Single-host
        backends (inline, mp, sim) run everything locally; the tcp
        backend overrides this with the topology's placement."""
        self.check_machine(machine)
        return "localhost"

    def resolve_machine(self, spec: "int | str") -> int:
        """Resolve a machine designator to its integer id.

        Plain ints pass through (range-checked).  ``"addr"`` /
        ``"addr/k"`` strings name the k-th machine on the host at
        *addr* (default k=0); only host-aware backends carry the
        placement needed to resolve them, so the base implementation
        accepts strings solely for the single-host case where every
        machine lives on ``localhost``.
        """
        if isinstance(spec, int):
            return self.check_machine(spec)
        addr, _, index_s = str(spec).partition("/")
        try:
            index = int(index_s) if index_s else 0
        except ValueError:
            raise NoSuchMachineError(
                f"bad machine spec {spec!r}: index {index_s!r} is not an "
                f"integer") from None
        local = ("localhost", "127.0.0.1", "::1", "loopback")
        if addr not in local:
            raise NoSuchMachineError(
                f"host {addr!r} is not part of this cluster (backend "
                f"{self.config.backend!r} runs every machine on localhost)")
        return self.check_machine(index)

    # -- core calling convention (backends implement call_async) -----------

    def call_async(self, ref: ObjectRef, method: str, args: tuple,
                   kwargs: dict) -> RemoteFuture:
        raise NotImplementedError

    def call_oneway(self, ref: ObjectRef, method: str, args: tuple,
                    kwargs: dict) -> None:
        raise NotImplementedError

    def _issue(self, ref: ObjectRef, method: str, args: tuple, kwargs: dict,
               oneway: bool, transmit: Transmit, *, caller: int = -1,
               local: bool = False, queued_at: Optional[float] = None
               ) -> Optional[RemoteFuture]:
        """The client half of a call, the same on every backend: open
        the client span, take a request id, stamp the vector clock,
        build the :class:`Request`, make the future (consume hook,
        span-closing callback) and hand both to the backend's
        *transmit* step.  :func:`complete` is the matching reply half.

        *caller* is the issuing machine (-1 = the driver).  A *local*
        call — caller and callee on one machine, no wire — opens no
        client span: its server span parents straight to whatever span
        this thread is executing under.  It still ticks the clock, so
        co-located conflicting calls stay visible to the race detector.
        *queued_at* backdates the span's ``t_queued`` for a backend
        that charged modeled send cost before getting here.
        """
        tracer = self.tracer
        checker = self.checker
        span = None
        span_id = None
        if tracer is not None:
            if local:
                span_id = current_span_id()
            elif tracer.wants(method):
                span = tracer.start_client(peer=ref.machine, oid=ref.oid,
                                           method=method, machine=caller)
                if queued_at is not None:
                    span.t_queued = queued_at
                span_id = span.span_id
        request = Request(request_id=self._request_ids.next(),
                          object_id=ref.oid, method=method, args=args,
                          kwargs=kwargs, oneway=oneway, caller=caller,
                          span=span_id,
                          clock=None if checker is None else checker.on_send())
        future = None
        if not oneway:
            future = self.new_future(
                label=f"m{caller}->m{ref.machine}#{ref.oid}.{method}")
            if checker is not None:
                future._consume_hook = checker.on_consume
            if span is not None:
                # Completion (reply, connection loss, send failure) runs
                # on the completing thread and closes the client span.
                future.add_done_callback(
                    partial(_close_client_span, tracer, span))
        if span is not None:
            # Stamped before the hand-off so a fast reply (completing on
            # another thread) can never close the span before it is sent.
            span.t_sent = tracer.now()
        try:
            transmit(ref, request, future)
        except BaseException as exc:
            if span is not None and (future is None or not future.done()):
                tracer.finish_client(span, error=type(exc).__name__,
                                     replied=False)
            raise
        return future

    def _execute_here(self, dispatcher, request: Request
                      ) -> "Response | ErrorResponse | None":
        """Transmit to a callee in this process: run *request* on the
        calling thread.  Execution is synchronous, so the caller
        observes the reply right here and the happens-before edge is
        acquired at once (error replies included — raising *is* the
        wait)."""
        reply = dispatcher.execute(request)
        if reply is not None and self.checker is not None:
            self.checker.on_consume(reply.clock)
        return reply

    def forwarded_ref(self, ref: ObjectRef,
                      exc: ObjectMovedError) -> Optional[ObjectRef]:
        """Rebuild *ref* from a forwarding error raised against it.

        Returns the object's new address, or ``None`` when the error
        does not describe *ref* (wrong oid/machine) or carries no
        forward — in which case the error must surface to the caller.
        """
        if exc.oid != ref.oid:
            return None
        if exc.machine is not None and exc.machine != ref.machine:
            return None
        if exc.new_machine is None or exc.new_oid is None:
            return None
        return ObjectRef(machine=exc.new_machine, oid=exc.new_oid,
                         spec=ref.spec or exc.spec)

    def call(self, ref: ObjectRef, method: str, args: tuple,
             kwargs: dict, timeout: Optional[float] = None, *,
             on_move=None) -> Any:
        """Synchronous remote execution — the paper's default semantics.

        When ``config.retry.retries > 0`` and *method* is idempotent
        (implicit reads, or listed in the class's
        ``__oopp_idempotent__``), a timed-out or transport-failed call
        is re-sent with exponential backoff.  Non-idempotent methods
        are never retried: an ambiguous failure must surface.

        A call that lands on a *migrated* object is re-issued at its
        new home: :class:`~repro.errors.ObjectMovedError` certifies
        the call never executed (the source table rejected it before
        any side effect), so the re-issue is safe even for
        non-idempotent methods — the same contract that makes
        ``PublicationError`` retryable.  Each call takes at most
        ``config.migrate.max_hops`` hops; *on_move* (if given) is
        called with each forwarded ref so proxies can rebind and skip
        the hop next time.
        """
        timeout = (timeout if timeout is not None
                   else self.config.call_timeout_s)
        hop = 0
        while True:
            try:
                return self._call_once(ref, method, args, kwargs, timeout)
            except ObjectMovedError as exc:
                hop += 1
                ref = self._forward(ref, exc, hop, on_move)

    def _forward(self, ref: ObjectRef, exc: ObjectMovedError, hop: int,
                 on_move=None) -> ObjectRef:
        """The one forwarding hop: where to re-issue a call to *ref*
        after *exc*, its *hop*-th forwarding error.  Re-raises *exc*
        when it names no forward for *ref* or the call has used its
        ``config.migrate.max_hops``."""
        fwd = self.forwarded_ref(ref, exc)
        if fwd is None or hop > self.config.migrate.max_hops:
            raise exc
        counters().inc("migrate.hops")
        if on_move is not None:
            on_move(fwd)
        return fwd

    def _call_once(self, ref: ObjectRef, method: str, args: tuple,
                   kwargs: dict, timeout: Optional[float]) -> Any:
        retry = self.config.retry
        if retry.retries <= 0 or not is_idempotent(ref, method):
            return self.call_async(ref, method, args, kwargs).result(timeout)

        def on_retry(i: int, exc: BaseException) -> None:
            c = counters()
            c.inc("retry.attempts")
            c.inc("retry.backoff_s", retry.backoff_s * (2 ** i))

        return retry_call(
            lambda: self.call_async(ref, method, args, kwargs).result(timeout),
            retries=retry.retries, backoff_s=retry.backoff_s,
            on_retry=on_retry)

    def call_forwarded_async(self, ref: ObjectRef, method: str, args: tuple,
                             kwargs: dict, *, on_move=None) -> RemoteFuture:
        """:meth:`call_async` with the migration forwarding hop.

        The returned future's ``result()`` transparently re-issues the
        call at the object's new home when the reply is an
        :class:`~repro.errors.ObjectMovedError` (bounded by
        ``config.migrate.max_hops``) — proxies route ``.future()``
        through here so pipelined fan-outs survive a concurrent
        migration just like synchronous calls do.
        """
        return _ForwardedCall(self, ref, method, args, kwargs,
                              on_move=on_move)

    # -- conveniences built on the calling convention -------------------------

    def kernel_ref(self, machine: int) -> ObjectRef:
        self.check_machine(machine)
        return ObjectRef(machine=machine, oid=KERNEL_OID, spec=None)

    def kernel_call(self, machine: int, method: str, *args: Any) -> Any:
        return self.call(self.kernel_ref(machine), method, args, {})

    def create(self, cls: type, args: tuple = (), kwargs: dict | None = None,
               *, machine: int = 0) -> Proxy:
        """The paper's ``new(machine k) Cls(args)``."""
        ref = self.kernel_call(machine, "create", class_spec(cls), args,
                               kwargs or {})
        return Proxy(ref, self)

    def destroy(self, ref: ObjectRef) -> None:
        """Destroy the object, following migration forwards.

        A destroy addressed to an object's old home raises
        :class:`~repro.errors.ObjectMovedError` from the source table;
        like any call, it is re-issued at the new address (bounded by
        ``config.migrate.max_hops``) so exactly one replica dies.
        """
        hop = 0
        while True:
            try:
                self.kernel_call(ref.machine, "destroy", ref.oid)
                return
            except ObjectMovedError as exc:
                hop += 1
                ref = self._forward(ref, exc, hop)

    def ping(self, machine: int) -> int:
        return self.kernel_call(machine, "ping")

    def stats(self, machine: int) -> dict:
        return self.kernel_call(machine, "stats")

    def quiesce(self, machine: int, oids: Optional[list[int]] = None) -> bool:
        return self.kernel_call(machine, "quiesce", oids)

    # -- publication (zero-copy broadcast) ------------------------------------

    @property
    def pub_backing(self) -> str:
        """Payload backing for :meth:`publish`: ``"shm"`` pins a named
        shared-memory segment (cross-process backends), ``"local"``
        keeps the payload in driver memory (single-process backends
        override)."""
        return "shm"

    def publish(self, obj: Any) -> pub.Publication:
        """Pin one pickled copy of *obj* per host and return its handle.

        While the publication is live, every call argument that contains
        *obj* — or its :class:`~repro.transport.pub.Publication` handle —
        ships a ~100-byte descriptor over the wire instead of the
        payload; each receiving process attaches and decodes the pinned
        copy once.  Call :meth:`~repro.transport.pub.Publication.unpublish`
        to unpin early; anything still pinned is swept when the fabric
        closes.  Published objects must be treated as read-only.
        """
        if self.config.pickle_protocol < 5:
            raise ConfigError(
                "publish() requires pickle_protocol >= 5 (publication "
                "descriptors ride as out-of-band PickleBuffers)")
        handle = pub.registry().publish(
            obj, protocol=self.config.pickle_protocol,
            backing=self.pub_backing)
        self._publications[handle.name] = handle
        return handle

    def auto_publish_args(self, args: tuple, kwargs: dict
                          ) -> tuple[tuple, dict]:
        """Publish large fan-out arguments (opt-in via ``wire.pub``).

        Top-level argument values whose transported size reaches
        ``wire.pub.publish_threshold_bytes`` are published and replaced
        with their handles, so an N-member group ships N descriptors and
        one payload per host.  The handle unpickles to the published
        value, so callee semantics are unchanged.  Values already
        published ship their existing handle.  A no-op unless the config
        opts in — and on the inline backend's no-copy debug mode, where
        arguments never round-trip through the serializer.
        """
        pcfg = self.config.wire.pub
        if pcfg is None or (not args and not kwargs):
            return args, kwargs
        if self.config.backend == "inline" and not self.config.inline_copy:
            return args, kwargs
        threshold = pcfg.publish_threshold_bytes
        protocol = self.config.pickle_protocol

        def maybe_publish(value: Any) -> Any:
            if isinstance(value, (pub.Publication, serde.Prepickled)):
                return value
            reg = pub.registry()
            if reg.is_published(value):
                return reg.handle_for(value) or value
            if _approx_nominal(value, protocol) >= threshold:
                return self.publish(value)
            return value

        new_args = tuple(maybe_publish(v) for v in args)
        new_kwargs = ({k: maybe_publish(v) for k, v in kwargs.items()}
                      if kwargs else kwargs)
        return new_args, new_kwargs

    # -- observability --------------------------------------------------------

    def trace_spans(self) -> list:
        """Drain every recorded span reachable from this fabric.

        The base implementation drains the driver-side tracer only —
        right for the single-process backends (inline and sim host all
        machines in the driver).  The mp backend overrides this to also
        gather each machine process's spans via kernel calls.
        """
        if self.tracer is None:
            return []
        return self.tracer.drain()

    def metrics(self) -> dict:
        """Per-process transport metrics, keyed by ``"driver"`` and
        ``"machine <k>"``.  Single-process backends report one entry;
        the mp backend overrides this to gather every machine."""
        return {"driver": snapshot_process()}

    def race_reports(self) -> list[dict]:
        """Drain every race report reachable from this fabric.

        The base implementation drains the driver-side checker only —
        complete for the single-process backends (inline and sim run
        every method execution in the driver process).  The mp backend
        overrides this to also gather each machine process's reports
        via kernel calls.
        """
        if self.checker is None:
            return []
        return self.checker.take_reports()

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        publications, self._publications = self._publications, {}
        for handle in publications.values():
            handle.unpublish()
        self._closed = True


class _ForwardedCall(RemoteFuture):
    """A future that re-issues its call after an ObjectMovedError.

    Wraps the backend's real future and delegates blocking to it, so
    backend-specific wait semantics (sim time, timeout units) are
    preserved.  The hop happens at *consumption*: ``result()`` catching
    a forwarding error re-sends the request to the new address and
    waits on the fresh inner future.  ``done()`` and callbacks reflect
    the current inner future — a callback may fire for an attempt whose
    ``result()`` then transparently hops; consumers that only ever read
    ``result()``/``exception()`` (wait_all, gather, group fan-outs)
    never observe the difference.
    """

    def __init__(self, fabric: Fabric, ref: ObjectRef, method: str,
                 args: tuple, kwargs: dict, *, on_move=None) -> None:
        super().__init__(label=f"fwd:{method}")
        self._fabric = fabric
        self._target = ref
        self._call = (method, args, kwargs)
        self._on_move = on_move
        self._hops = 0
        self._inner = fabric.call_async(ref, method, args, kwargs)

    def _hop(self, exc: ObjectMovedError) -> bool:
        """Re-issue at the forwarded address; False when exc must surface."""
        try:
            self._target = self._fabric._forward(
                self._target, exc, self._hops + 1, self._on_move)
        except ObjectMovedError:
            return False
        self._hops += 1
        self._inner = self._fabric.call_async(self._target, *self._call)
        return True

    def result(self, timeout: Optional[float] = None) -> Any:
        while True:
            try:
                return self._inner.result(timeout)
            except ObjectMovedError as exc:
                if not self._hop(exc):
                    raise

    def exception(self, timeout: Optional[float] = None
                  ) -> Optional[BaseException]:
        while True:
            exc = self._inner.exception(timeout)
            if isinstance(exc, ObjectMovedError) and self._hop(exc):
                continue
            return exc

    def done(self) -> bool:
        return self._inner.done()

    def add_done_callback(self, cb) -> None:
        self._inner.add_done_callback(lambda _inner: cb(self))

    def set_result(self, value: Any) -> None:  # pragma: no cover
        raise RuntimeError("forwarded futures are completed by their "
                           "inner future, not directly")

    def set_exception(self, exc: BaseException) -> None:  # pragma: no cover
        raise RuntimeError("forwarded futures are completed by their "
                           "inner future, not directly")


def make_fabric(config: Config) -> Fabric:
    """Instantiate the backend named by ``config.backend``, resolved
    through the pluggable registry (:mod:`repro.backends.registry`)."""
    from .registry import resolve_backend

    config.validate()
    return resolve_backend(config.backend)(config)
