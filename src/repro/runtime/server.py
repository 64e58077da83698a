"""The object server that runs on every machine.

Four pieces:

:class:`ObjectTable`
    oid → live instance, with per-object in-flight call counters (used
    by quiescence barriers and by destroy, which waits for running
    methods to drain before tearing the object down).
    :meth:`ObjectTable.checkout` resolves the instance and registers
    the call in one atomic step, so a concurrent destroy can never slip
    between the lookup and the counter increment.

:class:`ServePolicy`
    Per-machine concurrency policy (see ``docs/SERVING.md``):
    ``@oopp.readonly`` methods on one object run concurrently under a
    per-object read/write lock, writers stay exclusive, a bounded pool
    of worker slots caps concurrent executions, and a per-object
    admission bound sheds excess load with
    :class:`~repro.errors.ServerOverloadedError`.

:class:`Kernel`
    The per-machine *kernel object*, installed at object id 0.  Object
    creation, destruction, statistics, quiescence and persistence
    snapshots are all ordinary methods on this object — the framework
    eats its own dog food: everything is remote method execution.

:class:`Dispatcher`
    Executes one :class:`~repro.transport.message.Request` against the
    table, with the runtime context set so that method bodies can issue
    their own remote calls and unpickled proxies bind to the machine's
    fabric.

:class:`MachineCore` assembles the four for one machine; every backend
hosts its machines through it.
"""

from __future__ import annotations

import threading
import traceback
from contextlib import ExitStack
from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional

from ..errors import (
    NoSuchObjectError,
    ObjectDestroyedError,
    ObjectMovedError,
    RuntimeLayerError,
    ServerOverloadedError,
)
from ..transport.message import KERNEL_OID, ErrorResponse, Request, Response
from ..util.ids import IdAllocator
from ..util.log import get_logger

log = get_logger("server")
from .context import CostHooks, RuntimeContext, context_scope
from .futures import set_wait_yielder
from .oid import ObjectRef, class_spec, resolve_class
from .proxy import GETATTR_METHOD, PING_METHOD, SETATTR_METHOD

if TYPE_CHECKING:  # pragma: no cover
    from ..backends.base import Fabric


#: name of the optional destructor hook on hosted instances.  Mirrors the
#: C++ destructor the paper relies on: it runs on the hosting machine when
#: the object is destroyed (explicitly or at machine shutdown).
DESTRUCTOR_HOOK = "oopp_destructor"


class ObjectTable:
    """Thread-safe registry of the objects hosted on one machine.

    *yield_wait*, when given, replaces condition-variable blocking in
    :meth:`remove`'s drain wait: the lock is dropped, ``yield_wait()``
    is called, and the wait loop re-checks.  The sim backend passes an
    ``engine.sleep`` poll here so a destroy issued from a simulation
    process blocks in *simulated* time instead of stalling the clock on
    an OS condition variable.
    """

    #: default per-object bound on calls parked during a migration
    #: freeze window (overridden from ``Config.migrate.forward_buffer``).
    DEFAULT_FORWARD_BUFFER = 64

    def __init__(self, *, yield_wait: Optional[Callable[[], None]] = None,
                 forward_buffer: Optional[int] = None) -> None:
        self._lock = threading.Lock()
        self._drained = threading.Condition(self._lock)
        self._objects: dict[int, Any] = {}
        self._pending: dict[int, int] = {}
        self._destroyed: set[int] = set()
        #: oids whose destroy is waiting for in-flight calls: lookups
        #: fail fast so the drain can actually finish.
        self._draining: set[int] = set()
        #: oids frozen by an in-progress migration: lookups park in a
        #: bounded buffer until the move commits or aborts.
        self._migrating: set[int] = set()
        #: oid → parked-lookup count during its freeze window.
        self._forward_waiters: dict[int, int] = {}
        #: oid → new ObjectRef after a committed migration; lookups
        #: raise ObjectMovedError carrying the forward (retryable hop).
        self._forwards: dict[int, "ObjectRef"] = {}
        self._forward_buffer = (self.DEFAULT_FORWARD_BUFFER
                                if forward_buffer is None else forward_buffer)
        #: set by the hosting Kernel so table-raised errors can name
        #: their machine (ObjectMovedError's stale side).
        self.machine_id: Optional[int] = None
        self._yield_wait = yield_wait
        self._ids = IdAllocator(start=KERNEL_OID + 1)

    def add(self, instance: Any, oid: Optional[int] = None) -> int:
        with self._lock:
            if oid is None:
                oid = self._ids.next()
            elif oid in self._objects:
                raise RuntimeLayerError(f"object id {oid} already in use")
            self._objects[oid] = instance
            self._pending.setdefault(oid, 0)
            self._destroyed.discard(oid)
            return oid

    def get(self, oid: int) -> Any:
        with self._lock:
            self._await_migration_locked(oid)
            return self._get_locked(oid)

    def _get_locked(self, oid: int) -> Any:
        try:
            return self._objects[oid]
        except KeyError:
            fwd = self._forwards.get(oid)
            if fwd is not None:
                raise ObjectMovedError(
                    f"object {oid} migrated to machine {fwd.machine} "
                    f"(oid {fwd.oid})", machine=self.machine_id, oid=oid,
                    new_machine=fwd.machine, new_oid=fwd.oid,
                    spec=fwd.spec) from None
            if oid in self._destroyed:
                raise ObjectDestroyedError(
                    f"object {oid} was destroyed; the pointer dangles"
                ) from None
            raise NoSuchObjectError(f"no object with id {oid} here") from None

    def _await_migration_locked(self, oid: int) -> None:
        """Park (lock held on entry/exit) while *oid* is frozen mid-move.

        This is the migration "forwarding buffer": calls that land
        during the freeze window wait here — without registering in
        ``_pending``, so the freeze's own drain is never starved — and
        re-resolve once the move commits (→ ObjectMovedError hop from
        the forwarding entry) or aborts (→ normal execution).  At most
        ``forward_buffer`` callers may park per object; beyond that the
        call is shed with a retryable ServerOverloadedError, exactly
        like an admission-queue overflow.
        """
        if oid not in self._migrating:
            return
        n = self._forward_waiters.get(oid, 0)
        if n >= self._forward_buffer:
            raise ServerOverloadedError(
                f"object {oid} is mid-migration and its forwarding "
                f"buffer is full ({n}/{self._forward_buffer})",
                machine=self.machine_id, oid=oid, depth=n)
        self._forward_waiters[oid] = n + 1
        try:
            if self._yield_wait is None:
                while oid in self._migrating:
                    self._drained.wait()
            else:
                # sim: park in simulated time (lock dropped per poll)
                while oid in self._migrating:
                    self._lock.release()
                    try:
                        self._yield_wait()
                    finally:
                        self._lock.acquire()
        finally:
            left = self._forward_waiters.get(oid, 1) - 1
            if left <= 0:
                self._forward_waiters.pop(oid, None)
            else:
                self._forward_waiters[oid] = left

    def checkout(self, oid: int) -> Any:
        """Resolve *oid* and register an in-flight call, atomically.

        The separate ``get(oid)`` + ``enter_call(oid)`` two-step is a
        race under concurrent dispatch: a destroy between the lookup and
        the increment sees pending == 0, drops the object, and the call
        then executes against a corpse.  Checkout holds the table lock
        across both, and refuses oids whose destroy is already draining.
        Pair every successful checkout with exactly one :meth:`checkin`.
        """
        with self._lock:
            # Order matters: a migration freeze parks the call (it will
            # re-resolve), a destroy drain fails it fast (it never will).
            self._await_migration_locked(oid)
            if oid in self._draining:
                raise ObjectDestroyedError(
                    f"object {oid} is being destroyed")
            instance = self._get_locked(oid)
            self._pending[oid] = self._pending.get(oid, 0) + 1
            return instance

    def checkin(self, oid: int) -> None:
        """Release a call registered by :meth:`checkout`.

        Unlike the historical ``exit_call``, a checkin racing a
        completed remove never resurrects the oid's pending entry.
        """
        with self._lock:
            n = self._pending.get(oid)
            if n is None:  # removed while we ran; nothing to release
                return
            self._pending[oid] = n - 1
            if n - 1 <= 0:
                self._drained.notify_all()

    def remove(self, oid: int) -> Any:
        """Remove and return the instance; waits for in-flight calls.

        While the wait drains, the oid is marked *draining*: new
        checkouts fail with :class:`ObjectDestroyedError` instead of
        racing the teardown (without this, a steady stream of callers
        could starve the destroy forever).

        A destroy that lands during a migration freeze parks with the
        other buffered calls: once the move commits it raises
        :class:`ObjectMovedError` (the fabric re-issues the destroy at
        the new home); if the move aborts it proceeds normally.
        """
        with self._lock:
            self._await_migration_locked(oid)
            if oid not in self._objects or oid in self._draining:
                fwd = self._forwards.get(oid)
                if fwd is not None and oid not in self._draining:
                    raise ObjectMovedError(
                        f"object {oid} migrated to machine {fwd.machine} "
                        f"(oid {fwd.oid})", machine=self.machine_id,
                        oid=oid, new_machine=fwd.machine, new_oid=fwd.oid,
                        spec=fwd.spec)
                if oid in self._destroyed or oid in self._draining:
                    raise ObjectDestroyedError(f"object {oid} already destroyed")
                raise NoSuchObjectError(f"no object with id {oid} here")
            self._draining.add(oid)
            try:
                if self._yield_wait is None:
                    while self._pending.get(oid, 0) > 0:
                        self._drained.wait()
                else:
                    # sim: block in simulated time (lock dropped per poll)
                    while self._pending.get(oid, 0) > 0:
                        self._lock.release()
                        try:
                            self._yield_wait()
                        finally:
                            self._lock.acquire()
                instance = self._objects.pop(oid)
                self._pending.pop(oid, None)
                self._destroyed.add(oid)
            finally:
                self._draining.discard(oid)
            return instance

    # -- migration (see docs/MIGRATION.md) ----------------------------------

    def begin_migrate(self, oid: int) -> Any:
        """Freeze *oid* for migration: drain in-flight calls, detach it.

        Returns the live instance (for snapshotting / abort restore).
        During the drain the oid sits in the same ``_draining`` set
        destroy uses, so a concurrent destroy cannot slip between the
        drain and the detach and execute against a corpse — it parks in
        :meth:`_await_migration_locked` and re-resolves after the move.
        From here until :meth:`finish_migrate` or :meth:`abort_migrate`
        the oid is *migrating*: new lookups park in the bounded
        forwarding buffer instead of failing.
        """
        with self._lock:
            if oid in self._draining or oid in self._migrating:
                raise RuntimeLayerError(
                    f"object {oid} is already draining or migrating")
            instance = self._get_locked(oid)
            self._migrating.add(oid)
            self._draining.add(oid)
            try:
                if self._yield_wait is None:
                    while self._pending.get(oid, 0) > 0:
                        self._drained.wait()
                else:
                    # sim: drain in simulated time (lock dropped per poll)
                    while self._pending.get(oid, 0) > 0:
                        self._lock.release()
                        try:
                            self._yield_wait()
                        finally:
                            self._lock.acquire()
                self._objects.pop(oid)
                self._pending.pop(oid, None)
            except BaseException:
                self._migrating.discard(oid)
                self._drained.notify_all()
                raise
            finally:
                self._draining.discard(oid)
            return instance

    def finish_migrate(self, oid: int, new_ref: "ObjectRef") -> None:
        """Commit a migration: install the forwarding entry, wake parkers."""
        with self._lock:
            if oid not in self._migrating:
                raise RuntimeLayerError(
                    f"object {oid} has no migration in progress")
            self._forwards[oid] = new_ref
            self._migrating.discard(oid)
            self._drained.notify_all()

    def abort_migrate(self, oid: int, instance: Any) -> None:
        """Undo a :meth:`begin_migrate`: reinstall the instance in place."""
        with self._lock:
            if oid not in self._migrating:
                raise RuntimeLayerError(
                    f"object {oid} has no migration in progress")
            self._objects[oid] = instance
            self._pending.setdefault(oid, 0)
            self._migrating.discard(oid)
            self._drained.notify_all()

    def forward_of(self, oid: int) -> Optional["ObjectRef"]:
        """The forwarding entry left by a committed migration, if any."""
        with self._lock:
            return self._forwards.get(oid)

    def enter_call(self, oid: int) -> None:
        with self._lock:
            self._pending[oid] = self._pending.get(oid, 0) + 1

    def exit_call(self, oid: int) -> None:
        with self._lock:
            n = self._pending.get(oid)
            if n is None:  # see checkin: never resurrect removed entries
                return
            self._pending[oid] = n - 1
            if n - 1 <= 0:
                self._drained.notify_all()

    def quiesce(self, oids: Optional[Iterable[int]] = None,
                timeout: Optional[float] = None) -> bool:
        """Block until the given objects (default: all) have no running calls.

        "All" excludes the kernel object: quiesce itself executes as a
        kernel call, so including it would be waiting for oneself.
        """
        wanted = set(oids) if oids is not None else None
        deadline = None
        if timeout is not None:
            import time
            deadline = time.monotonic() + timeout
        with self._lock:
            def busy() -> bool:
                items = self._pending.items()
                if wanted is None:
                    return any(n > 0 for oid, n in items if oid != KERNEL_OID)
                return any(n > 0 for oid, n in items if oid in wanted)

            while busy():
                remaining = None
                if deadline is not None:
                    import time
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._drained.wait(remaining)
        return True

    def oids(self) -> list[int]:
        with self._lock:
            return sorted(self._objects)

    def __len__(self) -> int:
        with self._lock:
            return len(self._objects)


class _ObjectServeState:
    """Lock + admission bookkeeping for one hosted object."""

    __slots__ = ("depth", "readers", "writer", "writer_depth",
                 "waiting_writers")

    def __init__(self) -> None:
        #: admitted calls: queued (waiting for a slot or the lock) plus
        #: executing.  This is the quantity max_queue_depth bounds.
        self.depth = 0
        #: thread ident → read-lock hold count (reentrant).
        self.readers: dict[int, int] = {}
        #: thread ident holding the write lock, or None.
        self.writer: Optional[int] = None
        self.writer_depth = 0
        #: writers blocked on the lock; readers defer to them so a
        #: steady read stream cannot starve a writer.
        self.waiting_writers = 0


class _Grant:
    """Token returned by :meth:`ServePolicy.enter`; closes the call."""

    __slots__ = ("oid", "tid", "mode", "slot", "prev_yielder")

    def __init__(self, oid: int, tid: int, mode: str, slot: bool) -> None:
        self.oid = oid
        self.tid = tid
        self.mode = mode  # "r" | "w"
        self.slot = slot  # True when this call took a worker slot
        #: the thread's previous wait-yielder, restored at exit
        self.prev_yielder = None


class ServePolicy:
    """One machine's concurrent-execution policy (``Config.serve``).

    Three mechanisms, applied in admission → slot → lock order:

    * **Admission**: at most ``max_queue_depth`` calls may be admitted
      (queued + executing) per object; beyond that the call is shed
      with :class:`~repro.errors.ServerOverloadedError` before any
      side effect.  The kernel object is exempt — shutdown, quiesce
      and metric gathers must land even on a saturated machine.
    * **Worker slots**: at most ``workers`` threads execute method
      bodies at once (``None`` = unbounded).  Slots are reentrant per
      thread: a nested local call made *by* a method body rides its
      parent's slot instead of deadlocking against it.
    * **Per-object read/write lock**: ``@oopp.readonly`` methods (and
      the implicit reads — getattr, ``__len__``, ...) share the
      object; every other method is a writer and runs alone.  Both
      sides are reentrant on the owning thread, and a reader may
      upgrade to writer while it is the sole reader.

    Locks are **yielded across blocking waits** (monitor semantics): a
    method body that parks on a remote future releases its object locks
    and worker slot for the duration of the wait and reacquires them
    before resuming (:meth:`yield_for_wait` / :meth:`unyield`) — the
    paper's symmetric call patterns (ghost exchange, FFT deposit rounds)
    hold an object while calling peers that call back in, and holding
    the lock across the wait would deadlock them.

    Blocking is backend-aware: on thread-per-call backends waiters park
    on a condition variable; on the sim backend (*engine* given) each
    waiter parks on an engine :class:`~repro.sim.engine.Trigger` that
    every release fires, so waiting blocks in *simulated* time — the
    clock keeps advancing for everyone else, and a wait under a
    zero-cost holder costs zero simulated seconds.
    """

    #: simulated seconds per poll for the coarse-grained sim waits that
    #: still poll (ObjectTable's destroy drain).  Small next to the
    #: network model's 25 us latency.
    SIM_POLL_S = 5e-6

    def __init__(self, serve, *, machine: Optional[int] = None,
                 engine=None) -> None:
        from ..check.detector import is_read  # late: check imports cluster
        from ..obs.metrics import counters

        self._serve = serve
        self._is_read = is_read
        self._machine = machine
        self._engine = engine
        # cached per-process registry (policies are built post-fork):
        # saves the registry lock round trip on every admission.
        self._counters = counters()
        self._cond = threading.Condition()
        #: sim waiters parked on engine triggers, fired by every release
        self._trigger_waiters: list = []
        self._states: dict[int, _ObjectServeState] = {}
        self._local = threading.local()
        #: threads currently holding a worker slot
        self._active = 0
        # peak gauges, exposed through Kernel.stats()["serve"]
        self._active_peak = 0
        self._depth_peak = 0
        self._shed = 0
        self._admitted = 0
        #: oid → monotone per-object gauges (admitted/shed/depth_peak).
        #: Kept after the object's _ObjectServeState is dropped — the
        #: Rebalancer reads these through cluster.metrics() to find hot
        #: objects, and hotness must survive idle gaps.
        self._per_object: dict[int, dict[str, int]] = {}

    # -- waiting ------------------------------------------------------------

    def _wait_for(self, pred: Callable[[], bool]) -> None:
        """Block (cond held) until *pred* holds; never busy-spins the CPU."""
        if self._engine is None:
            self._cond.wait_for(pred)
            return
        from ..sim.engine import Trigger

        while not pred():
            # Registered under the cond, fired by _notify under the
            # cond: a release between our pred check and engine.wait
            # already sees (and fires) this trigger, so the wakeup
            # cannot be lost — engine.wait returns fired triggers
            # immediately.
            trigger = Trigger(label="serve-wait")
            self._trigger_waiters.append(trigger)
            self._cond.release()
            try:
                self._engine.wait(trigger)
            finally:
                self._cond.acquire()

    def _notify(self) -> None:
        """Wake every waiter to re-check its predicate (cond held)."""
        if self._engine is None:
            self._cond.notify_all()
            return
        waiters, self._trigger_waiters = self._trigger_waiters, []
        for trigger in waiters:
            self._engine.fire(trigger)

    # -- admission / locking ------------------------------------------------

    def _admit_locked(self, oid: int, method: str, *,
                      held: bool) -> "_ObjectServeState":
        st = self._states.setdefault(oid, _ObjectServeState())
        serve = self._serve
        gauges = self._per_object.get(oid)
        if gauges is None:
            gauges = self._per_object[oid] = {
                "admitted": 0, "shed": 0, "depth_peak": 0}
        if (serve.max_queue_depth is not None and not held
                and st.depth >= serve.max_queue_depth):
            self._shed += 1
            gauges["shed"] += 1
            self._counters.inc("serve.shed")
            raise ServerOverloadedError(
                f"object {oid} admission queue full "
                f"({st.depth}/{serve.max_queue_depth}) for {method!r}",
                machine=self._machine, oid=oid, method=method,
                depth=st.depth)
        st.depth += 1
        self._admitted += 1
        gauges["admitted"] += 1
        self._counters.inc("serve.admitted")
        if st.depth > gauges["depth_peak"]:
            gauges["depth_peak"] = st.depth
        if st.depth > self._depth_peak:
            self._depth_peak = st.depth
            self._counters.record_max("serve.depth_peak", st.depth)
        return st

    def admit(self, oid: int, method: str) -> None:
        """Admission-only half of :meth:`enter`, for transport enqueue.

        The mp backend calls this on the connection reader thread
        *before* handing the request to its worker pool, so the pool's
        internal queue counts toward the object's depth and overload is
        shed at the socket instead of hiding in the executor backlog.
        A request admitted here must be dispatched with
        ``preadmitted=True`` (and will be released by the normal
        :meth:`exit`); a shed raises without any state to undo.  Kernel
        requests are exempt and need no pre-admission.
        """
        if oid == KERNEL_OID:
            return
        with self._cond:
            self._admit_locked(oid, method, held=False)

    def cancel_admit(self, oid: int) -> None:
        """Roll back an :meth:`admit` whose dispatch never happened."""
        if oid == KERNEL_OID:
            return
        with self._cond:
            st = self._states.get(oid)
            if st is None:
                return
            st.depth -= 1
            if st.depth <= 0 and not st.readers and st.writer is None:
                del self._states[oid]
            self._notify()

    def enter(self, oid: int, instance: Any, method: str, *,
              preadmitted: bool = False) -> Optional[_Grant]:
        """Admit, take a slot, and lock *oid* for *method*; may shed.

        Returns a grant to pass to :meth:`exit`, or ``None`` for calls
        the policy does not govern (the kernel object).  Raises
        :class:`~repro.errors.ServerOverloadedError` when the object's
        admission queue is full.  *preadmitted* marks requests whose
        depth was already counted by :meth:`admit` on the enqueue path.
        """
        if oid == KERNEL_OID:
            return None
        serve = self._serve
        tid = threading.get_ident()
        readonly = (serve.readonly_concurrency
                    and self._is_read(instance, method))
        with self._cond:
            if preadmitted:
                st = self._states.setdefault(oid, _ObjectServeState())
            else:
                st = self._states.get(oid)
                # a thread already holding the object's lock (nested
                # local call) is never shed: it must be able to finish.
                held = (st is not None
                        and (st.writer == tid or tid in st.readers))
                st = self._admit_locked(oid, method, held=held)
            slot = False
            nested = getattr(self._local, "depth", 0)
            try:
                if serve.workers is not None and nested == 0:
                    self._wait_for(lambda: self._active < serve.workers)
                    self._active += 1
                    slot = True
                    if self._active > self._active_peak:
                        self._active_peak = self._active
                if readonly:
                    if st.writer != tid and tid not in st.readers:
                        # writer-preference; reentrant readers are exempt
                        # (deferring would deadlock against the waiting
                        # writer we ourselves block).
                        self._wait_for(
                            lambda: st.writer is None
                            and st.waiting_writers == 0)
                    st.readers[tid] = st.readers.get(tid, 0) + 1
                    mode = "r"
                else:
                    if st.writer == tid:
                        st.writer_depth += 1
                    else:
                        st.waiting_writers += 1
                        try:
                            # sole-reader upgrade allowed: readers - {tid}
                            # must be empty, not readers itself.
                            self._wait_for(
                                lambda: st.writer is None
                                and not (set(st.readers) - {tid}))
                        finally:
                            st.waiting_writers -= 1
                        st.writer = tid
                        st.writer_depth = 1
                    mode = "w"
            except BaseException:
                st.depth -= 1
                if slot:
                    self._active -= 1
                self._notify()
                raise
            self._local.depth = nested + 1
            grant = _Grant(oid, tid, mode, slot)
            grants = getattr(self._local, "grants", None)
            if grants is None:
                grants = self._local.grants = []
            grants.append(grant)
            # blocking future waits on this thread now yield the locks
            # this policy granted (monitor semantics, docs/SERVING.md)
            grant.prev_yielder = set_wait_yielder(self)
            return grant

    def exit(self, grant: Optional[_Grant]) -> None:
        if grant is None:
            return
        grants = getattr(self._local, "grants", None)
        if grants:
            if grants[-1] is grant:
                grants.pop()
            else:  # defensive: out-of-order exits (direct policy driving)
                try:
                    grants.remove(grant)
                except ValueError:
                    pass
        set_wait_yielder(grant.prev_yielder)
        with self._cond:
            st = self._states[grant.oid]
            if grant.mode == "r":
                n = st.readers.get(grant.tid, 1) - 1
                if n <= 0:
                    st.readers.pop(grant.tid, None)
                else:
                    st.readers[grant.tid] = n
            else:
                st.writer_depth -= 1
                if st.writer_depth <= 0:
                    st.writer = None
            st.depth -= 1
            self._local.depth = getattr(self._local, "depth", 1) - 1
            if grant.slot:
                self._active -= 1
            # waiters have depth > 0, so nobody holds a reference to a
            # state we drop here
            if (st.depth == 0 and not st.readers and st.writer is None):
                del self._states[grant.oid]
            self._notify()

    # -- lock yielding around blocking waits --------------------------------

    def yield_for_wait(self) -> Optional[list]:
        """Release this thread's locks + slots for a blocking future wait.

        Monitor semantics: a method body that blocks waiting on a remote
        reply is not *executing* — the object it serves must stay
        callable, or the paper's symmetric patterns deadlock (the
        stencil's ghost exchange holds every worker's write lock while
        each waits on a ``deposit_ghost`` reply from a neighbour that is
        queued behind that very lock).  Called by the futures layer
        (:func:`~repro.runtime.futures.set_wait_yielder` wiring) just
        before parking; returns a token for :meth:`unyield`.  Admission
        depth is *kept* — a yielded call is still in flight and still
        counts toward ``max_queue_depth``.
        """
        grants = getattr(self._local, "grants", None)
        if not grants:
            return None
        token = list(grants)
        with self._cond:
            for g in reversed(token):
                st = self._states[g.oid]
                if g.mode == "r":
                    n = st.readers.get(g.tid, 1) - 1
                    if n <= 0:
                        st.readers.pop(g.tid, None)
                    else:
                        st.readers[g.tid] = n
                else:
                    st.writer_depth -= 1
                    if st.writer_depth <= 0:
                        st.writer = None
                if g.slot:
                    self._active -= 1
            self._notify()
        return token

    def unyield(self, token: Optional[list]) -> None:
        """Reacquire the locks released by :meth:`yield_for_wait`.

        Grants are retaken outermost-first, each with the same slot-
        then-lock discipline as :meth:`enter`.  The method body resumes
        only once every lock is back, so exclusivity holds again the
        instant execution continues — but state *may* have been mutated
        by other calls during the wait, exactly as under the paper's
        free-running executor.
        """
        if not token:
            return
        serve = self._serve
        with self._cond:
            for g in token:
                st = self._states.setdefault(g.oid, _ObjectServeState())
                if g.slot and serve.workers is not None:
                    self._wait_for(lambda: self._active < serve.workers)
                    self._active += 1
                    if self._active > self._active_peak:
                        self._active_peak = self._active
                if g.mode == "r":
                    if st.writer != g.tid and g.tid not in st.readers:
                        self._wait_for(
                            lambda st=st: st.writer is None
                            and st.waiting_writers == 0)
                    st.readers[g.tid] = st.readers.get(g.tid, 0) + 1
                else:
                    if st.writer == g.tid:
                        st.writer_depth += 1
                    else:
                        st.waiting_writers += 1
                        try:
                            self._wait_for(
                                lambda st=st, tid=g.tid: st.writer is None
                                and not (set(st.readers) - {tid}))
                        finally:
                            st.waiting_writers -= 1
                        st.writer = g.tid
                        st.writer_depth = 1

    # -- introspection ------------------------------------------------------

    def stats(self) -> dict:
        """Serving gauges for ``Kernel.stats()`` / ``cluster.metrics()``."""
        serve = self._serve
        with self._cond:
            return {
                "workers": serve.workers,
                "max_queue_depth": serve.max_queue_depth,
                "active": self._active,
                "active_peak": self._active_peak,
                "queued": sum(s.depth for s in self._states.values()),
                "depth_peak": self._depth_peak,
                "admitted": self._admitted,
                "shed": self._shed,
                # per-oid gauges for the Rebalancer (hot-spot detection)
                "per_object": {oid: dict(g)
                               for oid, g in self._per_object.items()},
            }


class Kernel:
    """The machine's object id 0: creation, destruction, introspection."""

    def __init__(self, machine_id: int, table: ObjectTable) -> None:
        self.machine_id = machine_id
        self.table = table
        # table-raised ObjectMovedError names the stale machine with this
        table.machine_id = machine_id
        #: instances detached by migrate_out, parked until commit/abort
        self._migrating_out: dict[int, Any] = {}
        self.calls_served = 0
        self._stats_lock = threading.Lock()
        #: set by the hosting backend; kernel.shutdown() fires it.
        self.stop_event = threading.Event()
        #: the process's span recorder, set by the hosting backend when
        #: tracing is on.  take_spans/obs_metrics are kernel methods so
        #: the driver gathers observability data the same way it does
        #: everything else: by remote method execution.
        self.tracer = None
        #: the process's race checker (see :mod:`repro.check`), set by
        #: the hosting backend when ``Config(check=...)`` enables
        #: detection; take_race_reports is the gather path.
        self.checker = None
        #: the machine's :class:`ServePolicy`, set by the hosting
        #: backend; stats() exposes its gauges (queue depth, sheds).
        self.policy: Optional[ServePolicy] = None

    # -- observability --------------------------------------------------------

    def take_spans(self) -> list[dict]:
        """Drain this process's recorded spans (as plain dicts)."""
        if self.tracer is None:
            return []
        return [span.to_dict() for span in self.tracer.drain()]

    def take_race_reports(self) -> list[dict]:
        """Drain this process's race reports (as plain dicts)."""
        if self.checker is None:
            return []
        return self.checker.take_reports()

    def obs_metrics(self) -> dict:
        """This machine's stats + process-wide transport counters."""
        from ..obs.metrics import snapshot_process

        out = self.stats()
        serve = out.get("serve")
        out.update(snapshot_process())
        if serve is not None:
            # the process-wide "serve" counter group must not clobber
            # the policy gauges (per_object feeds the Rebalancer)
            merged = dict(out.get("serve") or {})
            merged.update(serve)
            out["serve"] = merged
        return out

    # -- liveness ----------------------------------------------------------

    def ping(self) -> int:
        return self.machine_id

    # -- object lifecycle ---------------------------------------------------

    def create(self, spec: tuple[str, str], args: tuple, kwargs: dict) -> ObjectRef:
        """Instantiate ``spec(*args, **kwargs)`` here; returns its ref.

        The constructor runs with the machine's runtime context already
        set (the dispatcher arranged that), so constructors may
        themselves create further remote objects — the paper's derived
        devices do exactly this.
        """
        cls = resolve_class(spec)
        instance = cls(*args, **kwargs)
        oid = self.table.add(instance)
        return ObjectRef(machine=self.machine_id, oid=oid, spec=spec)

    def call_function(self, spec: tuple[str, str], args: tuple,
                      kwargs: dict) -> Any:
        """Execute a module-level function on this machine.

        The remote-procedure complement of remote objects: the driver's
        ``cluster.submit(fn, ..., machine=k)`` lands here.  The function
        runs with the machine's runtime context set (the dispatcher
        arranged that), so it may create objects and call proxies.
        """
        from ..apps.funcspec import resolve_func

        return resolve_func(spec)(*args, **kwargs)

    def adopt(self, instance: Any) -> ObjectRef:
        """Register an already-constructed local instance (backend use)."""
        oid = self.table.add(instance)
        return ObjectRef(machine=self.machine_id, oid=oid,
                         spec=class_spec(type(instance)))

    def destroy(self, oid: int) -> bool:
        """Run the destructor hook and drop the object.

        Waits for in-flight calls on the object to complete first, so a
        method body never loses its instance mid-execution.
        """
        if oid == KERNEL_OID:
            raise RuntimeLayerError("cannot destroy the kernel object")
        instance = self.table.remove(oid)
        if self.checker is not None:
            # the oid may be reused; stale history must not pair with it
            self.checker.forget(self.machine_id, oid)
        hook = getattr(instance, DESTRUCTOR_HOOK, None)
        if callable(hook):
            hook()
        return True

    def destroy_all(self) -> int:
        """Destroy every hosted object (machine shutdown path)."""
        count = 0
        for oid in self.table.oids():
            try:
                self.destroy(oid)
                count += 1
            except (NoSuchObjectError, ObjectDestroyedError):
                pass
        return count

    # -- synchronization -----------------------------------------------------

    def quiesce(self, oids: Optional[list[int]] = None,
                timeout: Optional[float] = None) -> bool:
        return self.table.quiesce(oids, timeout)

    # -- persistence support (see repro.runtime.persistence) ----------------

    def snapshot(self, oid: int) -> tuple[tuple[str, str], Any]:
        """Capture ``(class spec, state)`` of a hosted object."""
        instance = self.table.get(oid)
        getter = getattr(instance, "__getstate__", None)
        state = getter() if callable(getter) else dict(instance.__dict__)
        return class_spec(type(instance)), state

    def restore(self, spec: tuple[str, str], state: Any) -> ObjectRef:
        """Recreate an object from a snapshot without running __init__."""
        cls = resolve_class(spec)
        instance = cls.__new__(cls)
        setter = getattr(instance, "__setstate__", None)
        if callable(setter):
            setter(state)
        elif state is not None:
            # pickle's contract: object.__getstate__ returns None for a
            # stateless instance, meaning "nothing to apply".
            instance.__dict__.update(state)
        oid = self.table.add(instance)
        return ObjectRef(machine=self.machine_id, oid=oid, spec=spec)

    def evict(self, oid: int) -> tuple[tuple[str, str], Any]:
        """Snapshot then drop — deactivation of a persistent process."""
        snap = self.snapshot(oid)
        self.table.remove(oid)
        return snap

    # -- live migration (see docs/MIGRATION.md) -----------------------------

    def migrate_out(self, oid: int) -> tuple[tuple[str, str], Any]:
        """Freeze *oid* and return its ``(spec, state)`` snapshot.

        Drains in-flight calls through the table's migration gate (new
        arrivals park in the bounded forwarding buffer), detaches the
        instance and snapshots it with the same encoder the persistence
        layer uses.  The instance is parked locally until the driver
        calls :meth:`migrate_commit` (install succeeded at the dest) or
        :meth:`migrate_abort` (it did not; the object is reinstalled
        here and keeps serving).
        """
        from ..obs.metrics import counters

        if oid == KERNEL_OID:
            raise RuntimeLayerError("cannot migrate the kernel object")
        instance = self.table.begin_migrate(oid)
        try:
            getter = getattr(instance, "__getstate__", None)
            state = getter() if callable(getter) else dict(instance.__dict__)
            spec = class_spec(type(instance))
        except BaseException:
            self.table.abort_migrate(oid, instance)
            raise
        self._migrating_out[oid] = instance
        counters().inc("migrate.out")
        return spec, state

    def migrate_commit(self, oid: int, new_ref: ObjectRef) -> bool:
        """Flip the forwarding entry: *oid* now lives at *new_ref*."""
        from ..obs.metrics import counters

        self._migrating_out.pop(oid, None)
        self.table.finish_migrate(oid, new_ref)
        if self.checker is not None:
            # the oid's access history must not pair with its new life
            self.checker.forget(self.machine_id, oid)
        counters().inc("migrate.committed")
        return True

    def migrate_abort(self, oid: int) -> bool:
        """Reinstall a frozen instance after a failed move."""
        from ..obs.metrics import counters

        instance = self._migrating_out.pop(oid, None)
        if instance is None:
            return False
        self.table.abort_migrate(oid, instance)
        counters().inc("migrate.aborted")
        return True

    def list_objects(self) -> list[tuple[int, tuple[str, str]]]:
        """``(oid, class spec)`` of every live hosted object."""
        out = []
        for oid in self.table.oids():
            try:
                instance = self.table.get(oid)
            except (NoSuchObjectError, ObjectMovedError):
                continue
            out.append((oid, class_spec(type(instance))))
        return out

    def snapshot_all(self) -> list[tuple[tuple[str, str], Any]]:
        """``(spec, state)`` snapshots of every live hosted object.

        The migration-aware conformance harness digests these across
        the whole cluster: the multiset of object states is placement-
        independent, unlike the per-machine object counts.
        """
        out = []
        for oid in self.table.oids():
            try:
                out.append(self.snapshot(oid))
            except (NoSuchObjectError, ObjectMovedError):
                continue
        return out

    # -- introspection --------------------------------------------------------

    def stats(self) -> dict:
        with self._stats_lock:
            served = self.calls_served
        out = {
            "machine": self.machine_id,
            "objects": len(self.table),
            "calls_served": served,
        }
        if self.policy is not None:
            out["serve"] = self.policy.stats()
        return out

    def count_call(self) -> None:
        with self._stats_lock:
            self.calls_served += 1

    # -- shutdown ---------------------------------------------------------------

    def shutdown(self) -> bool:
        """Request machine shutdown; the hosting backend watches stop_event."""
        self.stop_event.set()
        return True


class Dispatcher:
    """Executes requests against one machine's object table."""

    def __init__(self, machine_id: int, table: ObjectTable, kernel: Kernel,
                 fabric: "Fabric", hooks=None, tracer=None,
                 checker=None, policy: Optional[ServePolicy] = None) -> None:
        self.machine_id = machine_id
        self.table = table
        self.kernel = kernel
        self.tracer = tracer
        self.checker = checker
        self.policy = policy
        self._context = RuntimeContext(fabric=fabric, machine_id=machine_id,
                                       hooks=hooks or CostHooks())

    @property
    def context(self) -> RuntimeContext:
        return self._context

    def execute(self, request: Request, *,
                preadmitted: bool = False) -> Response | ErrorResponse | None:
        """Run one request; returns the reply (None for oneway).

        *preadmitted* marks requests the transport already admitted
        through :meth:`ServePolicy.admit` (the mp socket path).

        When tracing is on, the method body runs inside a *server span*
        scoped as the current span, so remote calls the body issues
        parent to it — that is what turns a pile of spans into the
        paper's object-to-object call tree.  When race detection is on,
        the body likewise runs inside a fresh vector-clock *task* that
        merged the request's clock — remote calls the body issues carry
        that task's clock, and the reply ships its final snapshot.
        """
        self.kernel.count_call()
        tracer = self.tracer
        checker = self.checker
        span = None
        ctask = None
        if tracer is not None and tracer.wants(request.method):
            # machine= pins the span to this machine even when the
            # tracer is the driver's (inline/sim host every machine
            # in-process and share one tracer).
            span = tracer.start_server(request, machine=self.machine_id)
        if checker is not None:
            ctask = checker.begin_execution(request)
        try:
            if span is not None or ctask is not None:
                with ExitStack() as scopes:
                    if span is not None:
                        scopes.enter_context(tracer.scope(span))
                    if ctask is not None:
                        scopes.enter_context(checker.scope(ctask))
                    value = self._run(request, preadmitted)
                if span is not None:
                    span.t_executed = tracer.now()
            else:
                value = self._run(request, preadmitted)
        except BaseException as exc:  # noqa: BLE001 - everything crosses the wire
            log.debug("machine %d: %s.%s raised %r (caller %d)",
                      self.machine_id, request.object_id, request.method,
                      exc, request.caller)
            if span is not None:
                span.t_executed = tracer.now()
                tracer.finish_server(span, error=type(exc).__name__)
            if request.oneway:
                return None
            picklable = _try_picklable(exc)
            return ErrorResponse(
                request_id=request.request_id,
                type_name=f"{type(exc).__module__}.{type(exc).__qualname__}",
                message=str(exc),
                remote_traceback=traceback.format_exc(),
                exception=picklable,
                clock=None if ctask is None else checker.end_execution(ctask),
            )
        if span is not None:
            tracer.finish_server(span)
        if request.oneway:
            return None
        return Response(
            request_id=request.request_id, value=value,
            clock=None if ctask is None else checker.end_execution(ctask))

    def _run(self, request: Request, preadmitted: bool = False) -> Any:
        oid = request.object_id
        name = request.method
        if oid == KERNEL_OID:
            # the kernel is not table-hosted; it keeps the historical
            # enter/exit accounting and bypasses the serve policy
            # entirely (shutdown must land on a saturated machine).
            instance = self.kernel
            self.table.enter_call(oid)
        else:
            # atomic lookup + in-flight registration: a concurrent
            # destroy either drains us or beats us, never interleaves.
            try:
                instance = self.table.checkout(oid)
            except BaseException:
                if preadmitted and self.policy is not None:
                    # the reader thread already counted this call in the
                    # object's depth; without the rollback a destroy
                    # race leaks it forever and (under max_queue_depth)
                    # eventually sheds every later call to the oid.
                    self.policy.cancel_admit(oid)
                raise
        try:
            grant = (None if self.policy is None
                     else self.policy.enter(oid, instance, name,
                                            preadmitted=preadmitted))
            try:
                if self.checker is not None:
                    # recorded after admission (a shed call never runs)
                    # but before the body: a method that raises may
                    # already have mutated the object.
                    self.checker.record(request, instance,
                                        machine=self.machine_id)
                with context_scope(self._context):
                    if name == GETATTR_METHOD:
                        return getattr(instance, *request.args)
                    if name == SETATTR_METHOD:
                        attr, value = request.args
                        setattr(instance, attr, value)
                        return None
                    if name == PING_METHOD:
                        return self.machine_id
                    method = getattr(instance, name, None)
                    if method is None or not callable(method):
                        raise AttributeError(
                            f"{type(instance).__name__} object {oid} has no "
                            f"callable method {name!r}")
                    return method(*request.args, **request.kwargs)
            finally:
                if self.policy is not None:
                    self.policy.exit(grant)
        finally:
            if oid == KERNEL_OID:
                self.table.exit_call(oid)
            else:
                self.table.checkin(oid)


class MachineCore:
    """One machine's serving half, assembled once for every backend:
    table + kernel + serve policy + dispatcher, with the hosting
    fabric's tracer and checker wired through all of them.

    Backends supply only what differs: *hooks* (the sim's cost model),
    *engine* (blocking waits then poll in simulated time instead of
    parking on an OS condition variable, which would stall the clock)
    and *kernel* (``(machine_id, table) -> Kernel``, for backends whose
    kernel object has extra verbs).
    """

    def __init__(self, machine_id: int, fabric: "Fabric", *, hooks=None,
                 engine=None,
                 kernel: Callable[[int, ObjectTable], Kernel] = Kernel) -> None:
        config = fabric.config
        self.machine_id = machine_id
        self.table = ObjectTable(
            yield_wait=(None if engine is None else
                        lambda: engine.sleep(ServePolicy.SIM_POLL_S)),
            forward_buffer=config.migrate.forward_buffer)
        self.kernel = kernel(machine_id, self.table)
        self.policy = ServePolicy(config.serve, machine=machine_id,
                                  engine=engine)
        self.kernel.tracer = fabric.tracer
        self.kernel.checker = fabric.checker
        self.kernel.policy = self.policy
        self.dispatcher = Dispatcher(machine_id, self.table, self.kernel,
                                     fabric, hooks=hooks,
                                     tracer=fabric.tracer,
                                     checker=fabric.checker,
                                     policy=self.policy)


def _try_picklable(exc: BaseException) -> BaseException | None:
    """Return *exc* if it survives a pickle round trip, else None."""
    import pickle

    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:  # noqa: BLE001 - any failure means "not picklable"
        return None
    return exc
