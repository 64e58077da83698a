"""Simulated backend: the runtime over the discrete-event cluster.

Objects live in the driver process (one table per simulated machine,
as in the inline backend), but every remote call is costed on the
simulated hardware of :mod:`repro.sim`:

* the caller charges a per-message CPU overhead;
* the request serializes on the caller's egress NIC, crosses the wire,
  and serializes on the target's ingress NIC — *nominal* byte counts
  (``__oopp_nominal_bytes__``) let experiments pretend pages are
  gigabytes while actually moving kilobytes;
* the method body runs on a freshly spawned simulation process, where
  the context's cost hooks charge simulated disk and CPU time;
* the response travels back the same way and fires the caller's future.

Measurements read ``fabric.engine.now`` (simulated seconds); wall-clock
time is irrelevant.  Blocking thread primitives
(:class:`~repro.runtime.sync.Mailbox` etc.) must not be hosted on this
backend — they would stall the simulated clock; coordinate phases from
the driver instead (the kernel's ``quiesce`` is sim-aware).
"""

from __future__ import annotations

from functools import partial
from typing import Any, Optional

from ..check.checker import make_checker
from ..config import Config
from ..errors import MachineDownError, SerializationError, SimulationError
from ..obs.tracer import make_tracer
from ..runtime.context import CostHooks, RuntimeContext, context_scope, current_context
from ..runtime.futures import RemoteFuture, _YieldedLocks
from ..runtime.oid import ObjectRef
from ..runtime.server import Kernel, MachineCore, ObjectTable
from ..sim.engine import Engine, Trigger
from ..sim.network import SimNetwork
from ..sim.trace import TraceLog
from ..transport import serde
from ..transport.faults import FaultInjector, FaultRule
from ..transport.message import ErrorResponse, Message, Request
from .base import Fabric, complete

#: fixed protocol overhead charged per message on the simulated wire
MESSAGE_OVERHEAD_BYTES = 64

#: polling quantum of the sim-aware quiesce (simulated seconds)
QUIESCE_POLL_S = 1e-6

#: modeled memory bandwidth of a publication first-attach (map + decode
#: copy); simulated machines charge ``payload_bytes / bandwidth`` seconds
PUB_ATTACH_BANDWIDTH = 8e9


class SimCostHooks(CostHooks):
    """Cost hooks charging one simulated machine's hardware."""

    def __init__(self, fabric: "SimFabric", node_id: int) -> None:
        self._fabric = fabric
        self._node_id = node_id

    def charge_compute(self, seconds: float) -> None:
        if seconds > 0:
            self._fabric.engine.sleep(seconds)

    def charge_disk_read(self, device_key: str, nbytes: int) -> None:
        node = self._fabric.network.node(self._node_id)
        trigger = node.disk(device_key).read(nbytes)
        self._fabric.trace.record(self._fabric.engine.now, "disk",
                                  self._node_id, op="read", nbytes=nbytes,
                                  device=device_key)
        self._fabric.engine.wait(trigger)

    def charge_disk_write(self, device_key: str, nbytes: int) -> None:
        node = self._fabric.network.node(self._node_id)
        trigger = node.disk(device_key).write(nbytes)
        self._fabric.trace.record(self._fabric.engine.now, "disk",
                                  self._node_id, op="write", nbytes=nbytes,
                                  device=device_key)
        self._fabric.engine.wait(trigger)

    def charge_shm_attach(self, nbytes: int) -> None:
        # A first attach of a published payload is a map + one decode
        # copy: memory-bandwidth work, not network traffic.  Subsequent
        # uses hit the attach table and charge nothing.
        if nbytes > 0:
            self._fabric.trace.record(self._fabric.engine.now, "pub_attach",
                                      self._node_id, nbytes=nbytes)
            self._fabric.engine.sleep(nbytes / PUB_ATTACH_BANDWIDTH)


class SimRemoteFuture(RemoteFuture):
    """A future whose wait advances the simulated clock."""

    def __init__(self, engine: Engine, *, label: str = "") -> None:
        super().__init__(label=label)
        self._engine = engine
        self.trigger = Trigger(label=label)

    def _wait(self, timeout: Optional[float]) -> bool:
        """Wait under simulated time; *timeout* is in simulated seconds.

        Waiting *is* what advances the clock, so a timeout cannot be a
        wall-clock alarm: instead a guard event fires the future's
        trigger at ``now + timeout``.  If the guard wins, the wait
        returns with the future still pending and :meth:`result` raises
        :class:`~repro.errors.CallTimeoutError` — the same contract as
        the mp backend, measured on the simulated clock.  A reply
        arriving after the guard fired is discarded (the delivery
        closures check ``trigger.fired``).
        """
        if self.done():
            return True
        # Yield the waiting thread's object locks for the duration
        # (monitor semantics) — same contract as the base class.
        with _YieldedLocks():
            if timeout is None:
                self._engine.wait(self.trigger)
                return self.done()
            trigger = self.trigger

            def guard() -> None:
                # Runs with the engine lock held (scheduled action); a
                # no-op when the real delivery won the race.
                if not trigger.fired:
                    self._engine._fire_locked(trigger, None, None)

            event = self._engine.schedule(timeout, guard)
            self._engine.wait(trigger)
            self._engine.cancel(event)
            return self.done()


class SimKernel(Kernel):
    """Kernel whose quiesce polls under simulated time.

    The base implementation blocks on a real condition variable, which
    would freeze the simulated clock (the blocked thread still counts
    as runnable).  Polling with tiny simulated sleeps lets the engine
    keep driving in-flight work to completion.
    """

    def __init__(self, machine_id: int, table: ObjectTable,
                 engine: Engine) -> None:
        super().__init__(machine_id, table)
        self._engine = engine

    def quiesce(self, oids: Optional[list[int]] = None,
                timeout: Optional[float] = None) -> bool:
        deadline = None if timeout is None else self._engine.now + timeout
        while not self.table.quiesce(oids, timeout=0):
            if deadline is not None and self._engine.now >= deadline:
                return False
            self._engine.sleep(QUIESCE_POLL_S)
        return True


class SimFabric(Fabric):
    """The runtime fabric over the simulated cluster."""

    #: publications stay in driver memory — all simulated machines share
    #: the process; the simulated attach cost is charged via hooks.
    pub_backing = "local"

    def __init__(self, config: Config) -> None:
        super().__init__(config)
        self.trace = TraceLog(enabled=True)
        # Schedule exploration: a seed perturbs the pop order of
        # same-instant events (see repro.check.explore).
        self.engine = Engine(
            trace=None,
            schedule_seed=(config.check.schedule_seed
                           if config.check is not None else None))
        # Spans carry *simulated* timestamps: the tracer's clock is the
        # event engine's, so an exported trace shows the modeled
        # overlap, not the wall-clock cost of computing it.
        self.tracer = make_tracer(config, node=-1,
                                  clock=lambda: self.engine.now)
        self.checker = make_checker(config, node=-1)
        self.network = SimNetwork(self.engine, config.n_machines,
                                  config.network, config.disk)
        # Blocking (destroy drains, worker slots, the per-object
        # read/write lock) must consume *simulated* time, hence engine=.
        self._machines = [
            MachineCore(i, self, hooks=SimCostHooks(self, i),
                        engine=self.engine,
                        kernel=partial(SimKernel, engine=self.engine))
            for i in range(config.n_machines)]
        self.new_future = partial(SimRemoteFuture, self.engine)
        #: chaos layer: one injector per (src, dst) link, allocated lazily
        #: in program order (deterministic for a deterministic program).
        self._fault_injectors: dict[tuple[int, int], FaultInjector] = {}
        # The driver thread is a simulation process for the whole session.
        self.engine.adopt_current_thread()
        self.driver_hooks = SimCostHooks(self, -1)

    # -- helpers ------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time (seconds)."""
        return self.engine.now

    def _caller_node(self) -> int:
        ctx = current_context()
        if ctx is not None and ctx.fabric is self:
            return ctx.machine_id
        return -1

    def _copy(self, value: Any, machine_id: int) -> tuple[Any, int]:
        """Snapshot *value* across the simulated boundary.

        Returns ``(copy, true_encoded_bytes)``; the copy is decoded
        under the destination machine's context.
        """
        header, buffers = serde.dumps(value, self.config.pickle_protocol)
        frozen = [bytes(b) for b in buffers]
        nbytes = len(header) + sum(len(b) for b in frozen)
        machine_ctx = (self._machines[machine_id].dispatcher.context
                       if machine_id >= 0
                       else RuntimeContext(fabric=self, machine_id=-1,
                                           hooks=self.driver_hooks))
        with context_scope(machine_ctx):
            return serde.loads(header, frozen), nbytes

    def _wire_bytes(self, value: Any) -> int:
        return serde.nominal_size_of(value, self.config.pickle_protocol) \
            + MESSAGE_OVERHEAD_BYTES

    # -- calling convention ----------------------------------------------------

    def call_async(self, ref: ObjectRef, method: str, args: tuple,
                   kwargs: dict) -> RemoteFuture:
        return self._send(ref, method, args, kwargs, oneway=False)

    def call_oneway(self, ref: ObjectRef, method: str, args: tuple,
                    kwargs: dict) -> None:
        self._send(ref, method, args, kwargs, oneway=True)

    def _send(self, ref: ObjectRef, method: str, args: tuple, kwargs: dict,
              *, oneway: bool) -> Optional[RemoteFuture]:
        if self._closed:
            raise MachineDownError("simulated cluster is shut down")
        dst = self.check_machine(ref.machine)
        src = self._caller_node()
        # Sender-side CPU: the caller's instruction stream is busy
        # marshalling; this is what serializes the paper's send-loop.
        # It shares the node's protocol CPU with response unmarshalling
        # (one core does both), so a flood of sends and arrivals queues.
        # The client span is queued *before* the charge and sent after
        # it — the gap is the modeled send-loop cost.
        queued_at = self.engine.now
        self._cpu_wait(src, self.config.network.per_message_cpu_s)
        return self._issue(ref, method, args, kwargs, oneway, self._transmit,
                           caller=src, local=(src == dst),
                           queued_at=queued_at)

    def _transmit(self, ref: ObjectRef, request: Request,
                  future: Optional[SimRemoteFuture]) -> None:
        """Cost the request on the simulated wire and schedule its
        execution on the target machine."""
        src, dst = request.caller, ref.machine
        req_wire = (self._wire_bytes(request.args)
                    + self._wire_bytes(request.kwargs))
        (request.args, request.kwargs), _ = self._copy(
            (request.args, request.kwargs), dst)
        self.trace.record(self.engine.now, "call", src, dst=dst,
                          method=request.method, oid=ref.oid, nbytes=req_wire)

        if src == dst:
            # Loopback: no network, immediate dispatch on this thread.
            # (Faults model the interconnect, so loopback is exempt —
            # mirroring the mp backend's local short-circuit.)
            self._execute(src, dst, request, future)
            return

        arrival = self.network.message_arrival(src, dst, req_wire)

        fault = self._fault_for(src, dst, "send", request)
        if fault is not None:
            if fault.action == "close":
                raise MachineDownError(
                    f"fault injected: link m{src}->m{dst} closed",
                    machine=dst, oid=ref.oid)
            if fault.action == "drop":
                # The request is lost.  Under the paper's block-forever
                # semantics the caller's wait starves the event queue,
                # surfacing deterministically as SimDeadlockError.
                return
            if fault.action == "corrupt":
                if future is not None:
                    self._deliver_exception(
                        future, arrival,
                        SerializationError(
                            f"fault injected: corrupted request frame "
                            f"m{src}->m{dst}"))
                return
            arrival += fault.delay_s  # action == "delay"

        self.engine.schedule_at(
            arrival,
            lambda: self.engine.spawn(self._execute, src, dst, request,
                                      future, name=f"sim-handler-m{dst}"))

    def _fault_for(self, src: int, dst: int, direction: str,
                   msg: Message) -> Optional[FaultRule]:
        """Consult the per-link injector; ``None`` without a fault plan.

        One injector covers each (caller, callee) pair, so — as on the
        mp backend's dialed connections — ``"send"`` sees outgoing
        requests and ``"recv"`` sees the responses coming back.
        """
        plan = self.config.fault_plan
        if plan is None:
            return None
        key = (src, dst)
        injector = self._fault_injectors.get(key)
        if injector is None:
            injector = plan.injector(label=f"sim m{src}->m{dst}")
            self._fault_injectors[key] = injector
        return injector.decide(direction, msg)

    def _deliver_exception(self, future: SimRemoteFuture, at: float,
                           exc: BaseException) -> None:
        """Complete *future* with *exc* at simulated time *at*."""

        def deliver() -> None:
            if future.trigger.fired:
                return  # the caller timed out; late failure discarded
            future.set_exception(exc)
            self.engine._fire_locked(future.trigger, None, None)

        self.engine.schedule_at(at, deliver)

    def _cpu_wait(self, node_id: int, seconds: float) -> None:
        """Occupy *node_id*'s protocol CPU and wait for our slot.

        Unlike a plain sleep, concurrent messages on one machine
        serialize here — per-message CPU is a per-node resource.
        """
        if seconds <= 0:
            return
        end = self.network.node(node_id).cpu.occupy(seconds)
        trigger = Trigger(label=f"cpu m{node_id}")
        self.engine.fire_at(end, trigger)
        self.engine.wait(trigger)

    def _execute(self, src: int, dst: int, request: Request,
                 future: Optional[SimRemoteFuture]) -> None:
        """Runs on a simulation process of machine *dst*."""
        machine = self._machines[dst]
        cpu = self.config.network.per_message_cpu_s
        if cpu > 0:
            self._cpu_wait(dst, cpu)  # request unmarshalling
        if self.config.sim_default_compute_s > 0:
            self.engine.sleep(self.config.sim_default_compute_s)
        reply = machine.dispatcher.execute(request)
        if future is None:
            return
        if isinstance(reply, ErrorResponse):
            resp_wire = MESSAGE_OVERHEAD_BYTES
        else:
            assert reply is not None
            resp_wire = self._wire_bytes(reply.value)
            # Decode under the caller's context so returned proxies bind
            # correctly (one fabric, but contexts carry machine identity).
            reply.value, _ = self._copy(reply.value, src)

        def deliver() -> None:
            if future.trigger.fired:
                return  # the caller timed out; late reply discarded
            complete(future, reply)
            self.engine._fire_locked(future.trigger, None, None)

        if src == dst:
            complete(future, reply)
            self.engine.fire(future.trigger)
            return
        if cpu > 0:
            self._cpu_wait(dst, cpu)  # response marshalling
        arrival = self.network.message_arrival(dst, src, resp_wire)

        fault = self._fault_for(src, dst, "recv", reply)
        if fault is not None:
            if fault.action == "drop":
                return  # response lost; the caller keeps waiting
            if fault.action == "corrupt":
                self._deliver_exception(future, arrival, SerializationError(
                    f"fault injected: corrupted response frame "
                    f"m{dst}->m{src}"))
                return
            if fault.action == "close":
                self._deliver_exception(future, arrival, MachineDownError(
                    f"fault injected: link m{src}->m{dst} closed",
                    machine=dst, oid=request.object_id))
                return
            arrival += fault.delay_s  # action == "delay"

        # response unmarshalling serializes on the *caller's* CPU —
        # the receive-loop's per-message cost.
        done = (self.network.node(src).cpu.occupy_from(arrival, cpu)
                if cpu > 0 else arrival)
        self.engine.schedule_at(done, deliver)

    # -- experiment helpers -----------------------------------------------------

    def drain(self) -> float:
        """Let all in-flight simulated work finish; returns final time."""
        return self.engine.run_until_idle()

    def utilization_report(self) -> dict:
        return self.network.utilization_report()

    # -- lifecycle -----------------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        for machine in self._machines:
            machine.kernel.destroy_all()
        self.engine.release_current_thread()
        super().close()

    def table_of(self, machine: int) -> ObjectTable:
        return self._machines[self.check_machine(machine)].table
