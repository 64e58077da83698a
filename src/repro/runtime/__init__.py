"""Runtime core: objects as processes, remote pointers, groups, persistence.

This package is the paper's primary contribution.  The pieces:

``oid``
    :class:`ObjectRef` — the wire form of a *remote pointer*: which
    machine hosts the object and its object id there.

``proxy``
    :class:`Proxy` — the client stub a remote pointer dereferences
    through.  Attribute access synthesizes method stubs (the work the
    paper assigns to the compiler); calls are sequential-by-default,
    with explicit ``.future()`` pipelining and ``.oneway()`` sends.

``server``
    The object server that runs on every machine: an object table, a
    *kernel object* (object id 0) whose methods implement object
    creation/destruction/quiescence/persistence, and the dispatcher that
    executes incoming requests with the runtime context set.

``futures``
    :class:`RemoteFuture` and helpers (:func:`wait_all`, :func:`gather`).

``group``
    :class:`ObjectGroup` — arrays of remote objects with pipelined
    ``invoke`` (the paper's compiler loop-splitting) and ``barrier()``.

``remotedata``
    The paper's ``new(machine 2) double[1024]``: server-side
    :class:`Block` plus convenience constructors.

``persistence`` / ``naming``
    Persistent processes with symbolic ``oop://`` addresses.
"""

from .oid import ObjectRef, class_spec, resolve_class
from .context import RuntimeContext, current_context, current_fabric, fabric_scope
from .futures import RemoteFuture, wait_all, gather, as_completed, yielding_wait
from .proxy import Proxy, RemoteMethod, destroy, is_proxy, ref_of, remote_getattr, remote_setattr
from .group import ObjectGroup
from .remotedata import Block
from .cluster import Cluster, current_cluster
from .rebalance import Move, Rebalancer
from .naming import ObjectAddress, parse_address, format_address
from .autopar import autoparallel, Deferred, CallBatch, DeferredError, force
from .protocol import Protocol, describe_protocol, protocol_of

__all__ = [
    "ObjectRef",
    "class_spec",
    "resolve_class",
    "RuntimeContext",
    "current_context",
    "current_fabric",
    "fabric_scope",
    "RemoteFuture",
    "wait_all",
    "gather",
    "as_completed",
    "yielding_wait",
    "Proxy",
    "RemoteMethod",
    "destroy",
    "is_proxy",
    "ref_of",
    "remote_getattr",
    "remote_setattr",
    "ObjectGroup",
    "Block",
    "Cluster",
    "current_cluster",
    "Move",
    "Rebalancer",
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
]
