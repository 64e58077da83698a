"""Inline backend: virtual machines inside the driver process.

Each virtual machine gets its own object table, kernel and dispatcher.
Calls execute synchronously on the calling thread, but arguments and
results still round-trip through the serializer (unless
``config.inline_copy`` is off), so objects on different virtual machines
are genuinely isolated: mutating an argument after the call, or mutating
a returned container, never leaks across the "process" boundary.

``call_async`` executes eagerly and returns an already-completed future.
That keeps pipelined code correct (it simply gains nothing), which is
exactly what the paper says about sequential execution of remote calls
before the compiler's loop-splitting is applied.
"""

from __future__ import annotations

from typing import Any, Optional

from ..check.checker import make_checker
from ..config import Config
from ..errors import MachineDownError
from ..obs.tracer import make_tracer
from ..runtime.context import fabric_scope
from ..runtime.futures import RemoteFuture, failed_future
from ..runtime.oid import ObjectRef
from ..runtime.server import MachineCore, ObjectTable
from ..transport import serde
from ..transport.message import Request, Response
from .base import Fabric, complete


class InlineFabric(Fabric):
    """All machines virtual, all calls synchronous, full serde fidelity."""

    #: publications stay in driver memory — every virtual machine shares
    #: the process, so a shared-memory segment would add nothing.
    pub_backing = "local"

    def __init__(self, config: Config) -> None:
        super().__init__(config)
        # One tracer/checker for the whole process: the virtual machines
        # share them (their server spans and recorded accesses carry
        # their own machine ids).
        self.tracer = make_tracer(config, node=-1)
        self.checker = make_checker(config, node=-1)
        self._machines = [MachineCore(i, self)
                          for i in range(config.n_machines)]

    # -- internals ----------------------------------------------------------

    def _copy(self, value: Any, machine_id: int) -> Any:
        """Serde round trip emulating the process boundary."""
        if not self.config.inline_copy:
            return value
        header, buffers = serde.dumps(value, self.config.pickle_protocol)
        # Freeze buffers: a real wire would have copied them off the sender.
        frozen = [bytes(b) for b in buffers]
        with fabric_scope(self, machine_id=machine_id):
            return serde.loads(header, frozen)

    def _transmit(self, ref: ObjectRef, request: Request,
                  future: Optional[RemoteFuture]) -> None:
        """The wire is a copy: arguments in, execute on this thread,
        result back out."""
        request.args = self._copy(request.args, ref.machine)
        request.kwargs = self._copy(request.kwargs, ref.machine)
        reply = self._execute_here(self._machines[ref.machine].dispatcher,
                                   request)
        if reply is None:
            return
        if type(reply) is Response:
            # The result is produced under the target machine's context;
            # copy it back under the *caller's* context so contained
            # proxies bind to... the same fabric (inline has only one),
            # but the copy still enforces isolation.
            reply.value = self._copy(reply.value, ref.machine)
        complete(future, reply)

    def _dispatch(self, ref: ObjectRef, method: str, args: tuple,
                  kwargs: dict, *, oneway: bool) -> Optional[RemoteFuture]:
        if self._closed:
            raise MachineDownError("cluster is shut down")
        self.check_machine(ref.machine)
        return self._issue(ref, method, args, kwargs, oneway, self._transmit)

    # -- Fabric interface ------------------------------------------------------

    def call_async(self, ref: ObjectRef, method: str, args: tuple,
                   kwargs: dict) -> RemoteFuture:
        try:
            return self._dispatch(ref, method, args, kwargs, oneway=False)
        except BaseException as exc:  # noqa: BLE001 - delivered via future
            return failed_future(exc, label=method)

    def call_oneway(self, ref: ObjectRef, method: str, args: tuple,
                    kwargs: dict) -> None:
        self._dispatch(ref, method, args, kwargs, oneway=True)

    def close(self) -> None:
        if self._closed:
            return
        for vm in self._machines:
            vm.kernel.destroy_all()
        super().close()

    # -- test/debug access -----------------------------------------------------

    def table_of(self, machine: int) -> ObjectTable:
        """Direct access to a virtual machine's object table (tests only)."""
        return self._machines[self.check_machine(machine)].table
