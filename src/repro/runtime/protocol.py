"""Introspecting the client-server protocol of a class.

The paper: "the client-server protocol is generated by the compiler
from the class description".  Our proxies synthesize stubs lazily, so
the protocol never exists as an artifact — except through this module,
which derives it the way the compiler would: every public method of
the class becomes a remotely executable operation, plus the implicit
operations every object supports (attribute access, ping, destroy).

Useful for documentation, debugging ("what can I call on this
pointer?"), and for validating a class *before* deploying it
(:func:`repro.lint.lint_class` catches unpicklable constructor
signatures and reserved-name collisions up front).

This module also hosts :class:`CallHeaderCache` — the compiled-protocol
idea applied to the wire: since the protocol of a class is static, the
request envelope for a given ``(object, method)`` call site is a
constant, and re-pickling it per call is pure waste.  The cache holds
the pickled *skeleton* once and the channel splices in only the
per-call request id and arguments (``KIND_CALL`` frames, see
``docs/WIRE.md``).
"""

from __future__ import annotations

import inspect
import pickle
import struct
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Optional

from ..errors import RuntimeLayerError, SerializationError
from .proxy import (
    GETATTR_METHOD,
    PING_METHOD,
    SETATTR_METHOD,
    Proxy,
)

#: operations every remote object supports regardless of its class
IMPLICIT_OPERATIONS = (
    (GETATTR_METHOD, "(name) -> value", "read a data attribute"),
    (SETATTR_METHOD, "(name, value)", "write a data attribute"),
    (PING_METHOD, "() -> machine_id", "round-trip liveness probe"),
    ("<kernel>.destroy", "(oid)", "terminate the process (oopp.destroy)"),
)

#: dunder operators the Proxy forwards
FORWARDED_DUNDERS = ("__getitem__", "__setitem__", "__delitem__",
                     "__len__", "__contains__", "__call__")


@dataclass
class MethodEntry:
    """One operation of a remote class's protocol."""

    name: str
    signature: str
    doc: str = ""
    kind: str = "method"  # "method" | "dunder" | "implicit"

    def render(self) -> str:
        doc = f"  — {self.doc}" if self.doc else ""
        return f"{self.name}{self.signature}{doc}"


@dataclass
class Protocol:
    """The full wire protocol of one class."""

    class_name: str
    constructor: str
    methods: list[MethodEntry] = field(default_factory=list)

    def names(self) -> list[str]:
        return [m.name for m in self.methods]

    def render(self) -> str:
        lines = [f"protocol of {self.class_name}",
                 f"  new(machine k) {self.class_name}{self.constructor}"]
        for kind, title in (("method", "methods"), ("dunder", "operators"),
                            ("implicit", "implicit")):
            entries = [m for m in self.methods if m.kind == kind]
            if entries:
                lines.append(f"  {title}:")
                lines.extend(f"    {m.render()}" for m in entries)
        return "\n".join(lines)


def _first_doc_line(obj) -> str:
    doc = inspect.getdoc(obj)
    return doc.splitlines()[0] if doc else ""


def _signature_of(fn) -> str:
    try:
        sig = inspect.signature(fn)
    except (TypeError, ValueError):
        return "(...)"
    params = [p for name, p in sig.parameters.items() if name != "self"]
    return str(sig.replace(parameters=params))


def describe_protocol(cls: type) -> Protocol:
    """Derive the remote protocol of *cls* (what its proxies can do)."""
    if not isinstance(cls, type):
        raise RuntimeLayerError(
            f"expected a class, got {type(cls).__name__}")
    ctor = _signature_of(cls.__init__) if cls.__init__ is not object.__init__ \
        else "()"
    proto = Protocol(class_name=cls.__qualname__, constructor=ctor)
    for name, member in inspect.getmembers(cls, callable):
        if name.startswith("_"):
            continue
        proto.methods.append(MethodEntry(
            name=name, signature=_signature_of(member),
            doc=_first_doc_line(member), kind="method"))
    for name in FORWARDED_DUNDERS:
        member = getattr(cls, name, None)
        if member is not None and member is not getattr(object, name, None):
            proto.methods.append(MethodEntry(
                name=name, signature=_signature_of(member),
                doc=_first_doc_line(member), kind="dunder"))
    for name, sig, doc in IMPLICIT_OPERATIONS:
        proto.methods.append(MethodEntry(name=name, signature=sig, doc=doc,
                                         kind="implicit"))
    return proto


def protocol_of(target) -> Protocol:
    """Protocol of a class, instance, or remote pointer.

    For a proxy, the class is resolved from the pointer's spec — no
    network traffic needed.
    """
    if isinstance(target, Proxy):
        from .oid import resolve_class

        ref = target._ref
        if ref.spec is None:
            raise RuntimeLayerError(
                "this pointer carries no class spec (kernel object?)")
        return describe_protocol(resolve_class(ref.spec))
    if isinstance(target, type):
        return describe_protocol(target)
    return describe_protocol(type(target))


#: u32 length prefix in front of the skeleton inside a CALL header
#: (kept in sync with ``transport.socket_channel._CALL_SKEL``).
_SKEL_LEN = struct.Struct("<I")


class CallHeaderCache:
    """LRU cache of pickled request skeletons, keyed per call site.

    A :class:`~repro.transport.message.Request` splits into a *skeleton*
    — ``(object_id, method, oneway, caller)``, constant for a given call
    site — and a per-call *tail* ``(request_id, span, clock, args,
    kwargs)``.  Anything unique per call (the request id, the tracing
    span id, the race-detection clock snapshot) MUST ride in the tail:
    the skeleton is shared by every call at a site, so a per-call value
    cached there would be replayed on later calls.  The
    skeleton pickle is cached here; a ``KIND_CALL`` frame carries the
    cached skeleton and a fresh tail pickle as two separate streams
    (never spliced into one: independent pickle streams cannot share a
    memo table).

    Thread-safe; sized for "number of distinct (object, method) call
    sites live at once", not message volume.
    """

    def __init__(self, maxsize: int = 512) -> None:
        self._maxsize = maxsize
        self._lock = threading.Lock()
        #: key -> (length-prefixed skeleton, bare skeleton pickle)
        self._entries: "OrderedDict[tuple, tuple[bytes, bytes]]" = OrderedDict()
        #: receive side: exact skeleton bytes -> decoded fields dict
        self._fields: dict[bytes, dict] = {}
        self.hits = 0
        self.misses = 0

    def _lookup(self, object_id: int, method: str, oneway: bool,
                caller: int, protocol: int) -> tuple[bytes, bytes]:
        key = (object_id, method, oneway, caller, protocol)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return entry
            self.misses += 1
        skel = pickle.dumps(
            ("req", {"object_id": object_id, "method": method,
                     "oneway": oneway, "caller": caller}),
            protocol=protocol)
        entry = (_SKEL_LEN.pack(len(skel)) + skel, skel)
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self._maxsize:
                self._entries.popitem(last=False)
        return entry

    def skeleton(self, object_id: int, method: str, oneway: bool,
                 caller: int, protocol: int = 5) -> bytes:
        """The pickled ``("req", fields)`` payload minus the tail fields."""
        return self._lookup(object_id, method, oneway, caller, protocol)[1]

    def prefix(self, object_id: int, method: str, oneway: bool,
               caller: int, protocol: int = 5) -> bytes:
        """The skeleton with its u32 length prefix — exactly the header
        bytes a ``KIND_CALL`` frame prepends to the tail pickle, so the
        send path does a single concatenation on a cache hit."""
        return self._lookup(object_id, method, oneway, caller, protocol)[0]

    def fields_for(self, skel: bytes) -> dict:
        """Decoded skeleton fields on the *receive* side, cached by the
        exact skeleton bytes — repeated calls to one method re-parse
        nothing but the tail.  Raises
        :class:`~repro.errors.SerializationError` for a skeleton that is
        not a request envelope."""
        fields = self._fields.get(skel)
        if fields is not None:
            return fields
        try:
            kind, fields = pickle.loads(skel)  # skeletons carry no buffers
        except Exception as exc:  # noqa: BLE001 - mangled frame
            raise SerializationError(
                f"undecodable CALL frame skeleton: {exc}") from exc
        if kind != "req" or not isinstance(fields, dict):
            raise SerializationError(
                f"CALL frame skeleton is a {kind!r} payload, expected 'req'")
        with self._lock:
            if len(self._fields) >= self._maxsize:
                self._fields.clear()
            self._fields[bytes(skel)] = fields
        return fields

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._fields.clear()
            self.hits = self.misses = 0

    def stats(self) -> dict:
        with self._lock:
            return {"size": len(self._entries), "hits": self.hits,
                    "misses": self.misses}


#: process-wide cache shared by every outbound channel.
call_header_cache = CallHeaderCache()
