"""oopp — Object-Oriented Parallel Programming for Python.

A reproduction of Givelberg's *Object-Oriented Parallel Programming*:
programming objects interpreted as processes.  A parallel program is a
collection of persistent processes that communicate by executing methods
on remote objects::

    import repro as oopp

    with oopp.Cluster(n_machines=4, backend="mp") as cluster:
        # new(machine 1) PageDevice("pagefile", 10, 1024)
        store = cluster.on(1).new(oopp.PageDevice, "pagefile", 10, 1024)
        page = oopp.Page(1024, bytes(1024))
        store.write(page, 17)            # remote method execution
        copy = store.read(17)            # result crosses the network

Public surface:

* **runtime** — :class:`Cluster`, :class:`Proxy` remote pointers,
  :class:`ObjectGroup` with pipelined ``invoke`` and ``barrier()``,
  :class:`RemoteFuture` + :func:`wait_all`/:func:`gather`,
  :func:`destroy`, remote primitive data (:class:`Block`,
  ``cluster.new_block``), persistence with ``oop://`` addresses;
* **storage substrate** — :class:`Page`, :class:`PageDevice`,
  :class:`ArrayPage`, :class:`ArrayPageDevice`, :class:`BlockStorage`,
  page-map layouts and 3-D :class:`Domain` algebra;
* **distributed array** — :class:`Array` over block storage, with
  at-the-data reductions and sibling operations (:mod:`repro.array.ops`);
* **FFT** — from-scratch serial kernels (:func:`serial_fft`) and the
  distributed 3-D transform (:class:`FFT` workers,
  :class:`DistributedFFT3D` facade);
* **backends** — ``inline`` (in-process virtual machines), ``mp`` (one
  OS process per machine, socket RPC), ``sim`` (discrete-event cluster
  simulator; see :mod:`repro.sim`), ``tcp`` (daemon-bootstrapped
  multi-host clusters, ``Cluster(hosts=[...])``; see
  ``docs/BACKENDS.md``); third-party backends plug in through
  :func:`register_backend`;
* **observability** — causal call tracing (:class:`Span`,
  ``Config(trace=...)``, ``cluster.trace_spans()`` /
  ``cluster.write_trace()``) and always-on transport counters
  (``cluster.metrics()``); see :mod:`repro.obs` and
  ``docs/OBSERVABILITY.md``;
* **correctness harness** — seeded schedule exploration over the sim
  engine, vector-clock race detection
  (``Config(check=CheckConfig(race_detect=True))``,
  ``cluster.race_reports()``, :func:`readonly`), and cross-backend
  conformance; see :mod:`repro.check` and ``docs/CHECKING.md``.

The paper's claims are reproduced as experiments E1–E10 under
:mod:`repro.bench` (``python -m repro.bench all``); results are
recorded in EXPERIMENTS.md.
"""

from .config import (
    CheckConfig,
    Config,
    DiskModel,
    HostSpec,
    MigrateConfig,
    NetworkModel,
    PubConfig,
    RetryConfig,
    ServeConfig,
    TopologyConfig,
    TraceConfig,
    WireConfig,
)
from . import errors
from .check.detector import readonly
from .obs import Span
from .errors import (
    OoppError,
    NoSuchObjectError,
    ObjectDestroyedError,
    ObjectMovedError,
    RemoteExecutionError,
    MachineDownError,
    CallTimeoutError,
    ChannelTimeoutError,
    ServerOverloadedError,
)
from .errors import HandshakeError, PublicationError
from .transport.faults import FaultPlan, FaultRule
from .transport.pub import Publication
from .runtime import (
    Cluster,
    current_cluster,
    Proxy,
    RemoteMethod,
    RemoteFuture,
    wait_all,
    gather,
    as_completed,
    yielding_wait,
    ObjectGroup,
    ObjectRef,
    Move,
    Rebalancer,
    Block,
    destroy,
    is_proxy,
    ref_of,
    remote_getattr,
    remote_setattr,
    ObjectAddress,
    parse_address,
    format_address,
    autoparallel,
    force,
    Deferred,
    CallBatch,
    DeferredError,
    Protocol,
    describe_protocol,
    protocol_of,
)
from .runtime.sync import Rendezvous, Latch, Mailbox
from .backends import available_backends, register_backend
from .storage import (
    Page,
    ArrayPage,
    PageDevice,
    ArrayPageDevice,
    BlockStorage,
    create_block_storage,
    CachingPageDevice,
    PageAddress,
    PageMap,
    RoundRobinPageMap,
    BlockedPageMap,
    PencilPageMap,
    Domain,
)
from .array import Array
from .fft import FFT, DistributedFFT3D
from .fft.serial import fft as serial_fft, ifft as serial_ifft
from .fft.serial import fftn as serial_fftn, ifftn as serial_ifftn
from .lint import LintFinding, lint_class, lint_paths, lint_source

__version__ = "1.0.0"

__all__ = [
    "Config",
    "DiskModel",
    "NetworkModel",
    "PubConfig",
    "WireConfig",
    "RetryConfig",
    "ServeConfig",
    "TraceConfig",
    "CheckConfig",
    "HostSpec",
    "TopologyConfig",
    "MigrateConfig",
    "register_backend",
    "available_backends",
    "readonly",
    "Span",
    "errors",
    "OoppError",
    "NoSuchObjectError",
    "ObjectDestroyedError",
    "ObjectMovedError",
    "RemoteExecutionError",
    "MachineDownError",
    "CallTimeoutError",
    "ChannelTimeoutError",
    "ServerOverloadedError",
    "FaultPlan",
    "FaultRule",
    "Publication",
    "PublicationError",
    "HandshakeError",
    "Cluster",
    "current_cluster",
    "Proxy",
    "RemoteMethod",
    "RemoteFuture",
    "wait_all",
    "gather",
    "as_completed",
    "yielding_wait",
    "ObjectGroup",
    "ObjectRef",
    "Move",
    "Rebalancer",
    "Block",
    "destroy",
    "is_proxy",
    "ref_of",
    "remote_getattr",
    "remote_setattr",
    "ObjectAddress",
    "parse_address",
    "format_address",
    "autoparallel",
    "force",
    "Deferred",
    "CallBatch",
    "DeferredError",
    "Protocol",
    "describe_protocol",
    "protocol_of",
    "CachingPageDevice",
    "Rendezvous",
    "Latch",
    "Mailbox",
    "Page",
    "ArrayPage",
    "PageDevice",
    "ArrayPageDevice",
    "BlockStorage",
    "create_block_storage",
    "PageAddress",
    "PageMap",
    "RoundRobinPageMap",
    "BlockedPageMap",
    "PencilPageMap",
    "Domain",
    "Array",
    "FFT",
    "DistributedFFT3D",
    "serial_fft",
    "serial_ifft",
    "serial_fftn",
    "serial_ifftn",
    "LintFinding",
    "lint_class",
    "lint_paths",
    "lint_source",
    "__version__",
]
