"""Framework-wide configuration.

A :class:`Config` instance travels from the user to the :class:`~repro.runtime.cluster.Cluster`
constructor and down into backends, channels and the simulator.  All fields
have conservative defaults so ``Cluster(n_machines=4)`` just works.

Related knobs are grouped into nested dataclasses — :class:`WireConfig`
(``Config.wire``: the mp fast path), :class:`RetryConfig`
(``Config.retry``: the idempotent-call retry budget) and
:class:`TraceConfig` (``Config.trace``: span recording, off by default).
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field

from .errors import ConfigError

#: Hard ceiling on a single wire frame, to catch runaway serialization bugs
#: before they take the host down.  1 GiB.
MAX_FRAME_BYTES = 1 << 30

#: Default localhost address family for the multiprocessing backend.
DEFAULT_HOST = "127.0.0.1"


@dataclass
class NetworkModel:
    """Parameters of the simulated interconnect.

    The defaults approximate a commodity datacenter fabric: 25 us one-way
    latency and 10 Gb/s (1.25e9 B/s) per-link bandwidth, with a small fixed
    per-message CPU overhead on each endpoint.
    """

    latency_s: float = 25e-6
    bandwidth_Bps: float = 1.25e9
    per_message_cpu_s: float = 2e-6
    #: bandwidth of the switch backplane; ``0`` means non-blocking.
    backplane_Bps: float = 0.0

    def validate(self) -> None:
        if self.latency_s < 0:
            raise ConfigError("latency_s must be >= 0")
        if self.bandwidth_Bps <= 0:
            raise ConfigError("bandwidth_Bps must be > 0")
        if self.per_message_cpu_s < 0:
            raise ConfigError("per_message_cpu_s must be >= 0")
        if self.backplane_Bps < 0:
            raise ConfigError("backplane_Bps must be >= 0")


@dataclass
class DiskModel:
    """Parameters of a simulated hard drive.

    Defaults approximate a 7200 rpm SATA drive: 8 ms average positioning
    time and 150 MB/s sequential transfer.
    """

    seek_s: float = 8e-3
    bandwidth_Bps: float = 150e6

    def validate(self) -> None:
        if self.seek_s < 0:
            raise ConfigError("seek_s must be >= 0")
        if self.bandwidth_Bps <= 0:
            raise ConfigError("bandwidth_Bps must be > 0")


@dataclass
class PubConfig:
    """Automatic zero-copy publication of broadcast arguments
    (see the "Publication & broadcast" section of ``docs/WIRE.md``).

    With ``Config(wire=WireConfig(pub=PubConfig()))``, group fan-outs
    (:meth:`~repro.runtime.group.ObjectGroup.invoke` and
    ``new_group`` argument fan-outs) automatically publish read-only
    argument values whose nominal size is at least
    ``publish_threshold_bytes``: the payload is pinned once per host and
    every member's call ships a small ``BUF_PUB`` descriptor instead of
    a fresh pickle.  Explicit ``cluster.publish(obj)`` works regardless
    of this knob (the receive side always understands descriptors).
    """

    #: minimum nominal size of a top-level argument value for automatic
    #: publication at group fan-outs, in bytes.
    publish_threshold_bytes: int = 1 << 20

    def validate(self) -> None:
        if self.publish_threshold_bytes < 1:
            raise ConfigError("pub.publish_threshold_bytes must be >= 1")


@dataclass
class WireConfig:
    """The mp backend's wire fast path (see ``docs/WIRE.md``).

    Each part is independently toggleable; all of them are send-side
    only (every channel always understands every format on receive).
    """

    #: coalesce pending small messages on one connection into a single
    #: BATCH frame flushed with one syscall (False = one frame per send).
    coalesce: bool = True
    #: byte budget of one BATCH frame; a drain that would exceed it is
    #: split into several frames.
    coalesce_max_bytes: int = 1 << 18
    #: at most this many messages are packed into one BATCH frame.
    coalesce_max_msgs: int = 128
    #: cache the pickled request skeleton per (object, method) and splice
    #: in only the request id and arguments (CALL frames).
    header_cache: bool = True
    #: ship out-of-band buffers >= shm_threshold_bytes through named
    #: shared-memory segments instead of the socket (same-host zero-copy).
    shm: bool = True
    #: minimum buffer size for the shared-memory path, in bytes.
    shm_threshold_bytes: int = 1 << 20
    #: automatic broadcast publication (:class:`PubConfig`); ``None``
    #: (the default) disables auto-publication — explicit
    #: ``cluster.publish`` still works.
    pub: PubConfig | None = None

    def validate(self) -> None:
        if self.coalesce_max_bytes < 1024:
            raise ConfigError("coalesce_max_bytes must be >= 1024")
        if self.coalesce_max_msgs < 1:
            raise ConfigError("coalesce_max_msgs must be >= 1")
        if self.shm_threshold_bytes < 1:
            raise ConfigError("shm_threshold_bytes must be >= 1")
        if self.pub is not None:
            validate = getattr(self.pub, "validate", None)
            if not callable(validate):
                raise ConfigError(
                    f"wire.pub must be a PubConfig, got "
                    f"{type(self.pub).__name__}")
            validate()


@dataclass
class RetryConfig:
    """Retry budget for *idempotent* remote calls.

    Idempotency means ping, attribute reads, page reads, and anything a
    class lists in ``__oopp_idempotent__`` (see
    :mod:`repro.runtime.proxy`).  A failed idempotent call is re-sent up
    to ``retries`` times, sleeping ``backoff_s * 2**attempt`` between
    attempts.  Retries trigger on timeouts and machine/channel failures;
    note the interaction with the paper's block-forever default: with
    ``call_timeout_s=None`` a *lost* (dropped) message never times out,
    so the retry budget only helps when a deadline is set.
    ``retries=0`` (the default) preserves the paper's semantics exactly.
    """

    #: retry budget (0 = never retry, the paper's semantics).
    retries: int = 0
    #: base of the exponential backoff between retries, in seconds.
    backoff_s: float = 0.05

    def validate(self) -> None:
        if self.retries < 0:
            raise ConfigError("retry.retries must be >= 0")
        if self.backoff_s <= 0:
            raise ConfigError("retry.backoff_s must be > 0")


@dataclass
class TraceConfig:
    """Span recording (see :mod:`repro.obs` and ``docs/OBSERVABILITY.md``).

    ``Config(trace=TraceConfig())`` — or the shorthand
    ``Config(trace=True)`` — gives every remote call a client span and a
    server span, causally linked across the wire; drain them with
    ``cluster.trace_spans()`` or export with ``cluster.write_trace()``.
    The default ``Config(trace=None)`` records nothing and costs one
    ``is None`` test per call.
    """

    #: per-process span buffer bound (oldest spans are dropped beyond it).
    max_spans: int = 100_000

    def validate(self) -> None:
        if self.max_spans < 1:
            raise ConfigError("trace.max_spans must be >= 1")


@dataclass
class CheckConfig:
    """The correctness harness (see :mod:`repro.check` / ``docs/CHECKING.md``).

    ``Config(check=CheckConfig(schedule_seed=N))`` perturbs the order in
    which the sim backend fires *same-instant* events — every seed is one
    legal schedule of the paper's concurrent object-processes, and
    :func:`repro.check.explore` sweeps seeds hunting for schedules whose
    observable outcome diverges.  ``race_detect=True`` attaches vector
    clocks to every remote call (the clock rides the request/reply tail
    the way trace span ids do) and reports unordered conflicting method
    pairs through ``cluster.race_reports()``.  The default
    ``Config(check=None)`` records nothing and costs one ``is None``
    test per call.
    """

    #: perturb same-instant sim event order with this seed; ``None``
    #: keeps the strict deterministic ``(time, seq)`` order.
    schedule_seed: int | None = None
    #: attach vector clocks to calls and run the race detector.
    race_detect: bool = False
    #: per-object bound on remembered accesses (older ones are pruned;
    #: races spanning more than this many intervening accesses on one
    #: object go unreported).
    max_accesses_per_object: int = 64
    #: global bound on retained race reports.
    max_reports: int = 1000

    def validate(self) -> None:
        if self.max_accesses_per_object < 2:
            raise ConfigError("check.max_accesses_per_object must be >= 2")
        if self.max_reports < 1:
            raise ConfigError("check.max_reports must be >= 1")


@dataclass
class ServeConfig:
    """Per-machine concurrent serving (see ``docs/SERVING.md``).

    Every machine dispatches requests through a :class:`~repro.runtime.server.ServePolicy`:
    ``@oopp.readonly`` methods on one object run concurrently under a
    per-object read/write lock, writers stay exclusive, and a bounded
    per-object admission queue sheds load with a retryable
    :class:`~repro.errors.ServerOverloadedError` once ``max_queue_depth``
    calls are already admitted (queued or executing) on that object.
    """

    #: concurrent method executions per machine.  ``None`` = auto: the
    #: mp backend keeps its historical 8-thread pool, sim/inline leave
    #: concurrency unbounded.  An explicit int is enforced on every
    #: backend via worker slots.  Must exceed the deepest chain of
    #: nested blocking remote calls that re-enters one machine — a
    #: cross-machine call cycle needs one slot per hop that lands here
    #: (nested *local* calls ride their parent's slot).
    workers: int | None = None
    #: per-object bound on admitted (queued + executing) calls; beyond
    #: it new calls are shed with ServerOverloadedError.  ``None`` =
    #: unbounded (the paper's semantics: callers queue forever).
    max_queue_depth: int | None = None
    #: run ``@oopp.readonly`` methods concurrently on one object.
    #: ``False`` serializes every method (one writer lock for all).
    readonly_concurrency: bool = True
    #: mp backend: executor threads *beyond* ``workers``.  A method body
    #: parked on a remote future (or inside ``yielding_wait``) releases
    #: its policy slot but still occupies an OS thread, so this bounds
    #: how many bodies one machine can park concurrently — size it above
    #: the deepest symmetric exchange (every party parked at once) the
    #: application performs, or the pool has no thread left to run the
    #: incoming calls that would unpark them (see docs/SERVING.md).
    yield_headroom: int = 16

    def validate(self) -> None:
        if self.workers is not None and self.workers < 1:
            raise ConfigError("serve.workers must be >= 1 or None")
        if self.max_queue_depth is not None and self.max_queue_depth < 1:
            raise ConfigError("serve.max_queue_depth must be >= 1 or None")
        if self.yield_headroom < 0:
            raise ConfigError("serve.yield_headroom must be >= 0")


@dataclass
class MigrateConfig:
    """Live object migration (see ``docs/MIGRATION.md``).

    ``cluster.migrate(handle, dest)`` quiesces the object on its source
    machine, snapshots it through the persistence encoder, installs it
    at *dest* and leaves a forwarding entry behind.  Calls that land on
    the source **during** the freeze window park in a bounded buffer
    (``forward_buffer`` per object) until the move commits or aborts;
    beyond the bound they are shed with a retryable
    :class:`~repro.errors.ServerOverloadedError`.  Stale proxies that
    arrive **after** the commit get one retryable
    :class:`~repro.errors.ObjectMovedError` hop per call, bounded by
    ``max_hops`` for chained migrations.
    """

    #: per-object bound on calls parked while the object is frozen
    #: mid-migration; beyond it new arrivals are shed (retryable).
    forward_buffer: int = 64
    #: bound on ObjectMovedError forwarding hops one call may take
    #: (an object migrated N times leaves a chain of N entries).
    max_hops: int = 8

    def validate(self) -> None:
        if self.forward_buffer < 1:
            raise ConfigError("migrate.forward_buffer must be >= 1")
        if self.max_hops < 1:
            raise ConfigError("migrate.max_hops must be >= 1")


@dataclass
class HostSpec:
    """One host in a multi-host (tcp backend) topology.

    ``addr`` is how the driver reaches the box (a hostname/IP for ssh
    spawn, or ``"localhost"``/``"127.0.0.1"`` for loopback daemons);
    ``machines`` is how many machine processes it hosts.  ``python``
    and ``env`` control the spawned daemon's interpreter and extra
    environment.  Set ``port`` to attach to a pre-started daemon
    (``python -m repro.backends.tcp --daemon``) instead of spawning one.
    """

    addr: str = "localhost"
    machines: int = 1
    #: interpreter used to spawn the daemon (``None`` = driver's own
    #: ``sys.executable`` locally, ``"python3"`` over ssh).
    python: str | None = None
    #: extra environment variables for the spawned daemon.
    env: dict | None = None
    #: control port of an already-running daemon; ``None`` spawns one.
    port: int | None = None

    @classmethod
    def parse(cls, spec: "HostSpec | str") -> "HostSpec":
        """Accept ``HostSpec`` instances or ``"addr"`` / ``"addr/N"`` /
        ``"addr:port/N"`` strings (``N`` machines, default 1)."""
        if isinstance(spec, cls):
            return spec
        if not isinstance(spec, str):
            raise ConfigError(
                f"host spec must be a HostSpec or string, got "
                f"{type(spec).__name__}")
        addr, _, count = spec.partition("/")
        machines = 1
        if count:
            try:
                machines = int(count)
            except ValueError:
                raise ConfigError(
                    f"bad host spec {spec!r}: machine count {count!r} "
                    f"is not an integer") from None
        port = None
        if ":" in addr:
            addr, _, port_s = addr.rpartition(":")
            try:
                port = int(port_s)
            except ValueError:
                raise ConfigError(
                    f"bad host spec {spec!r}: port {port_s!r} "
                    f"is not an integer") from None
        if not addr:
            raise ConfigError(f"bad host spec {spec!r}: empty address")
        return cls(addr=addr, machines=machines, port=port)

    @property
    def is_local(self) -> bool:
        return self.addr in ("localhost", "127.0.0.1", "::1", "loopback")

    def validate(self) -> None:
        if not self.addr or not isinstance(self.addr, str):
            raise ConfigError("HostSpec.addr must be a non-empty string")
        if self.machines < 1:
            raise ConfigError("HostSpec.machines must be >= 1")
        if self.port is not None and not (0 < self.port < 65536):
            raise ConfigError("HostSpec.port must be in (0, 65536)")


@dataclass
class TopologyConfig:
    """Multi-host layout for the tcp backend (see ``docs/BACKENDS.md``).

    ``hosts`` places ``n_machines`` machine processes across boxes;
    empty (the default) means one loopback host carrying every machine,
    so ``Config(backend="tcp", n_machines=4)`` works with no topology
    at all.  The heartbeat knobs drive the per-host liveness monitor: a
    host that misses ``heartbeat_misses`` consecutive heartbeats is
    declared dead and every machine it hosts raises
    :class:`~repro.errors.MachineDownError`.
    """

    hosts: list = field(default_factory=list)
    #: seconds between heartbeat pings on each host's control channel.
    heartbeat_interval_s: float = 0.25
    #: consecutive missed heartbeats before the host is declared dead.
    heartbeat_misses: int = 3
    #: seconds to wait for a spawned daemon's ready line + handshake.
    daemon_ready_timeout_s: float = 30.0
    #: argv prefix used to reach non-local hosts.
    ssh: tuple = ("ssh", "-o", "BatchMode=yes")

    def validate(self) -> None:
        for spec in self.hosts:
            if not isinstance(spec, HostSpec):
                raise ConfigError(
                    f"topology.hosts entries must be HostSpec, got "
                    f"{type(spec).__name__} (use HostSpec.parse for "
                    f"'addr/N' strings)")
            spec.validate()
        if self.heartbeat_interval_s <= 0:
            raise ConfigError("topology.heartbeat_interval_s must be > 0")
        if self.heartbeat_misses < 1:
            raise ConfigError("topology.heartbeat_misses must be >= 1")
        if self.daemon_ready_timeout_s <= 0:
            raise ConfigError("topology.daemon_ready_timeout_s must be > 0")

    def resolved_hosts(self, n_machines: int) -> list:
        """The concrete host list: explicit hosts checked against
        ``n_machines``, or a single loopback host carrying all of them."""
        if not self.hosts:
            return [HostSpec(addr="localhost", machines=n_machines)]
        total = sum(h.machines for h in self.hosts)
        if total != n_machines:
            raise ConfigError(
                f"topology.hosts place {total} machines but n_machines="
                f"{n_machines}; they must agree")
        return list(self.hosts)


@dataclass
class Config:
    """Top-level framework configuration.

    Parameters
    ----------
    backend:
        ``"inline"`` (objects in the driver process, for tests),
        ``"mp"`` (one OS process per machine, socket RPC — the real thing),
        ``"tcp"`` (machines on other hosts, one daemon per host), or
        ``"sim"`` (simulated cluster over the discrete-event engine).
    n_machines:
        Number of machines in the cluster, ``machine 0 .. n_machines-1``.
        The driver itself plays the role of the paper's *machine 0 client*;
        machines are remote peers.
    call_timeout_s:
        Deadline for a single remote call.  ``None`` disables timeouts
        (the paper's semantics: calls block forever).  On ``mp`` and
        ``sim`` a deadline raises
        :class:`~repro.errors.CallTimeoutError` — in wall-clock seconds
        on mp, *simulated* seconds on sim; ``inline`` executes calls
        synchronously, so its futures are born completed and can never
        time out (see :meth:`repro.runtime.futures.RemoteFuture.result`).
    wire:
        :class:`WireConfig` — the mp wire fast path knobs.
    retry:
        :class:`RetryConfig` — idempotent-call retry budget.
    trace:
        :class:`TraceConfig` to record call spans, or ``None`` (default)
        for no tracing.  ``True``/``False`` are accepted as shorthands.
    check:
        :class:`CheckConfig` for the correctness harness — seeded
        same-instant schedule perturbation on the sim backend and
        vector-clock race detection on every backend — or ``None``
        (default) for no checking.  ``True``/``False`` are accepted as
        shorthands (``True`` means ``CheckConfig(race_detect=True)``).
    fault_plan:
        A :class:`~repro.transport.faults.FaultPlan` injecting seeded,
        deterministic faults (drop/delay/corrupt/close) into the mp and
        sim backends.  ``None`` (the default) disables injection; see
        ``docs/FAILURES.md``.
    storage_root:
        Directory under which file-backed PageDevices and the persistence
        store keep their data.  Defaults to a per-process temp directory.
    network / disk:
        Cost models used by the ``sim`` backend (ignored elsewhere).
    pickle_protocol:
        Protocol used by the serde layer for the object path.
    """

    backend: str = "inline"
    n_machines: int = 4
    call_timeout_s: float | None = None
    #: mp wire fast path (see :class:`WireConfig` / docs/WIRE.md).
    wire: WireConfig = field(default_factory=WireConfig)
    #: idempotent-call retry budget (see :class:`RetryConfig`).
    retry: RetryConfig = field(default_factory=RetryConfig)
    #: span recording; ``None`` = tracing off (see :class:`TraceConfig`).
    trace: TraceConfig | None = None
    #: correctness harness: schedule exploration + race detection
    #: (see :class:`CheckConfig`); ``None`` = checking off.
    check: CheckConfig | None = None
    #: optional :class:`~repro.transport.faults.FaultPlan` (chaos layer).
    fault_plan: object | None = None
    storage_root: str | None = None
    network: NetworkModel = field(default_factory=NetworkModel)
    disk: DiskModel = field(default_factory=DiskModel)
    pickle_protocol: int = 5
    #: mp backend: seconds to wait for worker processes to come up.
    startup_timeout_s: float = 30.0
    #: mp backend: seconds to wait for graceful shutdown before kill.
    shutdown_timeout_s: float = 10.0
    #: sim backend: wall-clock seconds charged per simulated *method body*
    #: when the body does not charge explicit compute time. 0 = free compute.
    sim_default_compute_s: float = 0.0
    #: inline backend: round-trip arguments/results through the serializer
    #: so mutation semantics match a real process boundary.  Turning this
    #: off shares objects by reference (fast, but unfaithful).
    inline_copy: bool = True
    #: per-machine concurrent serving: worker slots, per-object
    #: read/write locks, bounded admission (see :class:`ServeConfig` /
    #: docs/SERVING.md).
    serve: ServeConfig = field(default_factory=ServeConfig)
    #: mp backend: multiprocessing start method.  ``fork`` lets workers
    #: resolve classes defined in test files or __main__.
    mp_start_method: str = "fork"
    #: tcp backend: host placement + heartbeat knobs (see
    #: :class:`TopologyConfig` / docs/BACKENDS.md).
    topology: TopologyConfig = field(default_factory=TopologyConfig)
    #: live object migration: freeze-window buffering + forwarding-hop
    #: bounds (see :class:`MigrateConfig` / docs/MIGRATION.md).
    migrate: MigrateConfig = field(default_factory=MigrateConfig)

    def __post_init__(self) -> None:
        # Bool shorthands for the two opt-in groups.
        if self.trace is True:
            self.trace = TraceConfig()
        elif self.trace is False:
            self.trace = None
        if self.check is True:
            self.check = CheckConfig(race_detect=True)
        elif self.check is False:
            self.check = None

    def validate(self) -> None:
        # Resolved through the pluggable registry (lazy import: the
        # registry module imports this one).  Importing repro.backends
        # registers the built-ins, so the error message below always
        # lists at least inline|mp|sim|tcp.
        from .backends.registry import is_registered, available_backends

        if not is_registered(self.backend):
            known = ", ".join(available_backends()) or "<none>"
            raise ConfigError(
                f"unknown backend {self.backend!r}; registered backends: "
                f"{known} (repro.backends.register_backend adds more)")
        if self.n_machines < 1:
            raise ConfigError("n_machines must be >= 1")
        if self.call_timeout_s is not None and self.call_timeout_s <= 0:
            raise ConfigError("call_timeout_s must be positive or None")
        for group in (self.wire, self.retry, self.trace, self.check,
                      self.serve, self.topology, self.migrate):
            if group is None:
                continue
            validate = getattr(group, "validate", None)
            if not callable(validate):
                raise ConfigError(
                    f"expected a config group with validate(), got "
                    f"{type(group).__name__}")
            validate()
        if self.fault_plan is not None:
            validate = getattr(self.fault_plan, "validate", None)
            if not callable(validate):
                raise ConfigError(
                    f"fault_plan must be a FaultPlan, got "
                    f"{type(self.fault_plan).__name__}")
            validate()
        if not (2 <= self.pickle_protocol <= 5):
            raise ConfigError("pickle_protocol must be in [2, 5]")
        if self.wire.pub is not None and self.pickle_protocol < 5:
            raise ConfigError(
                "wire.pub requires pickle_protocol >= 5 (publication "
                "descriptors ride as out-of-band PickleBuffers)")
        if self.startup_timeout_s <= 0 or self.shutdown_timeout_s <= 0:
            raise ConfigError("timeouts must be positive")
        if self.sim_default_compute_s < 0:
            raise ConfigError("sim_default_compute_s must be >= 0")
        if self.mp_start_method not in ("fork", "spawn", "forkserver"):
            raise ConfigError(f"unknown start method {self.mp_start_method!r}")
        self.network.validate()
        self.disk.validate()

    def replace(self, **kwargs) -> "Config":
        """Return a copy with the given fields replaced (and validated)."""
        cfg = dataclasses.replace(self, **kwargs)
        cfg.validate()
        return cfg

    def resolve_storage_root(self) -> str:
        """Return the storage root, creating a default one if unset."""
        root = self.storage_root
        if root is None:
            import tempfile

            root = os.path.join(tempfile.gettempdir(), f"oopp-{os.getpid()}")
        os.makedirs(root, exist_ok=True)
        return root
