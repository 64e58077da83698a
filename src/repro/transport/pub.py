"""Zero-copy publication: pin a read-only object once per host, fan out
descriptors instead of N pickles.

The paper's economics argument is that object-oriented parallel programs
ship *references* to distributed state, not copies — yet a group
broadcast of a large read-only argument re-pickles it once per callee.
:func:`~repro.runtime.cluster.Cluster.publish` fixes the multiplier:

* ``publish(obj)`` pickles *obj* exactly once into a publisher-owned
  payload (a named shared-memory segment on the mp backend, process
  memory on the single-process backends) and returns a small
  :class:`Publication` handle;
* wherever the handle — or the published object itself — appears in
  call arguments, the wire carries a ~100-byte ``BUF_PUB`` *descriptor*
  (name, generation, digest) instead of the payload;
* the receiving process attaches the mapping lazily on first use,
  decodes one private copy per (machine, name, generation), and caches
  it in a per-process attach table — N calls to one host cost one
  attach, and the payload bytes never traverse the socket at all.

Ownership is the inverse of the per-call shm path
(:mod:`repro.transport.shm`): per-call segments are receiver-owned
(refcount zero unlinks), publication segments are **publisher-owned** —
receivers attach with ``unlink_on_release=False`` and only ever close
their mapping, while :meth:`Publication.unpublish`, cluster shutdown and
the publisher's exit sweep unlink the name.

Staleness and corruption surface as :class:`~repro.errors.PublicationError`
(a retryable :class:`~repro.errors.TransportError`): the payload embeds
the descriptor's generation and digest, so attaching a reused or
mismatched segment fails fast instead of decoding garbage.

Published objects must be treated as **read-only**: the attach table
hands every call on one machine the same decoded instance.
"""

from __future__ import annotations

import atexit
import contextlib
import hashlib
import os
import pickle
import secrets
import struct
import threading
from typing import Any, Optional

from ..errors import PublicationError, TransportError
from ..obs.metrics import counters
from ..util.hostid import fingerprint_bytes, host_fingerprint
from ..util.log import get_logger
from . import serde, shm

log = get_logger("pub")

#: leading bytes of both the wire descriptor and the pinned payload.
PUB_MAGIC = b"OOPPPUB1"

#: descriptor after the magic: payload size, generation, digest prefix.
_DESC_FIXED = struct.Struct("<QQ16s")

#: wire descriptors additionally carry the publisher's 16-char host
#: fingerprint after the fixed fields (the pinned *payload* trailer does
#: not — it never leaves the host).  A receiver on another box refuses
#: the descriptor instead of attaching a nonexistent segment.
_DESC_FP = struct.Struct("<16s")

#: payload index after magic + generation + digest: buffer count, header
#: length, then one u64 length per out-of-band buffer.
_IDX_HEAD = struct.Struct("<IQ")

#: descriptors are magic + fixed fields + an ascii segment name; anything
#: longer is not one of ours (cheap reject in the staging fast path).
_MAX_DESC_LEN = 256

#: simulated memory bandwidth of a first attach (mapping + digest check),
#: charged through :meth:`repro.runtime.context.CostHooks.charge_shm_attach`.
ATTACH_NOMINAL_BYTES = len(PUB_MAGIC) + _DESC_FIXED.size + 32


def pack_pub_descriptor(name: str, size: int, generation: int,
                        digest: bytes) -> bytes:
    return (PUB_MAGIC + _DESC_FP.pack(fingerprint_bytes())
            + _DESC_FIXED.pack(size, generation, digest)
            + name.encode("ascii"))


def unpack_pub_descriptor(data: bytes) -> tuple[str, int, int, bytes]:
    """``(name, size, generation, digest)`` or :class:`PublicationError`."""
    data = bytes(data)
    if not data.startswith(PUB_MAGIC):
        raise PublicationError("malformed publication descriptor (bad magic)")
    try:
        (fp,) = _DESC_FP.unpack_from(data, len(PUB_MAGIC))
        fp_str = fp.decode("ascii")
        size, generation, digest = _DESC_FIXED.unpack_from(
            data, len(PUB_MAGIC) + _DESC_FP.size)
        name = data[len(PUB_MAGIC) + _DESC_FP.size
                    + _DESC_FIXED.size:].decode("ascii")
    except (struct.error, UnicodeDecodeError) as exc:
        raise PublicationError(
            f"malformed publication descriptor: {exc}") from exc
    if not name.startswith(shm.SHM_NAME_PREFIX):
        raise PublicationError(
            f"publication descriptor names foreign segment {name!r}")
    local = host_fingerprint()
    if fp_str != local:
        raise PublicationError(
            f"publication {name!r} was pinned on host {fp_str} but this "
            f"process runs on host {local}; publications do not cross "
            f"hosts (the sender should inline the payload — see "
            f"docs/BACKENDS.md)")
    return name, size, generation, digest


def is_descriptor(view) -> bool:
    """Cheap test used by the wire staging path to tag ``BUF_PUB``."""
    mv = view if isinstance(view, memoryview) else memoryview(view)
    n = mv.nbytes
    if n < len(PUB_MAGIC) + _DESC_FIXED.size or n > _MAX_DESC_LEN:
        return False
    return bytes(mv[:len(PUB_MAGIC)]) == PUB_MAGIC


class Publication:
    """Handle to one pinned, read-only, published object.

    The handle itself is tiny.  Pickling it — and pickling the published
    object while the publication is live — emits only the wire
    descriptor; unpickling *resolves* the descriptor, so the receiving
    side always sees the published **value**, never the handle.  Call
    :meth:`unpublish` (or shut the owning cluster down) to unpin.
    """

    __slots__ = ("name", "generation", "digest", "nbytes", "_descriptor",
                 serde.NOMINAL_ATTR)

    def __init__(self, name: str, size: int, generation: int,
                 digest: bytes) -> None:
        self.name = name
        self.nbytes = size
        self.generation = generation
        self.digest = digest
        self._descriptor = pack_pub_descriptor(name, size, generation, digest)
        # The simulated wire charges a Publication what it really costs.
        setattr(self, serde.NOMINAL_ATTR, len(self._descriptor))

    @property
    def descriptor(self) -> bytes:
        """The ``BUF_PUB`` wire descriptor (name, generation, digest)."""
        return self._descriptor

    def get(self) -> Any:
        """Resolve to the published value in *this* process (attaching
        and caching like a remote receiver would).  Unlike the unpickle
        path, attach failures raise here immediately."""
        from ..runtime.context import current_machine_id
        machine = current_machine_id()
        return registry().resolve(bytes(self._descriptor),
                                  -1 if machine is None else machine)

    def unpublish(self) -> bool:
        """Unpin: drop the payload and unlink its segment.  Idempotent;
        returns False when this process is not the publisher or the
        publication was already dropped.  In-flight calls that have not
        attached yet will fail with a retryable
        :class:`~repro.errors.PublicationError`."""
        return registry().unpublish(self.name)

    def __reduce_ex__(self, protocol: int):
        if _suppressed():
            # Descriptor-free encode (a cross-host peer cannot attach
            # our segments): ship the resolved value itself.  The
            # recursive pickle of the value also sees the suppression,
            # so the published object inside encodes fully inline.
            return (_inline_value, (self.get(),))
        _mark_emitted()
        if protocol >= 5:
            return (_resolve_from_wire, (pickle.PickleBuffer(self._descriptor),))
        return (_resolve_from_wire, (self._descriptor,))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Publication(name={self.name!r}, nbytes={self.nbytes}, "
                f"generation={self.generation})")


class _Published:
    """Publisher-side record of one pinned payload."""

    __slots__ = ("handle", "obj", "seg", "payload", "size")

    def __init__(self, handle: Publication, obj: Any,
                 seg, payload: Optional[bytes]) -> None:
        self.handle = handle
        self.obj = obj          # strong ref: keeps id(obj) valid until unpublish
        self.seg = seg          # shm.Segment | None (local backing)
        self.payload = payload  # bytes | None (shm backing)
        self.size = handle.nbytes


class _Attached:
    """Receiver-side attach-table entry: one decoded copy per machine."""

    __slots__ = ("obj", "view")

    def __init__(self, obj: Any, view) -> None:
        self.obj = obj
        self.view = view        # pins the shm mapping (or local payload)


class PubRegistry:
    """Per-process publication state: pinned payloads + attach table.

    Fork-aware like :func:`repro.transport.shm.manager` — a forked child
    inherits the parent's dict but must not unlink the parent's
    segments, so :func:`registry` rebuilds on pid change.
    """

    def __init__(self) -> None:
        self.pid = os.getpid()
        self._lock = threading.RLock()
        self._published: dict[str, _Published] = {}
        #: id(obj) -> (obj, descriptor): consulted by the serde reducer
        #: so a published object pickles as its descriptor anywhere it
        #: appears.  Decoded attach-table objects register here too, so
        #: *forwarding* a received published object ships the descriptor
        #: again instead of a fresh payload.
        self._by_id: dict[int, tuple[Any, bytes]] = {}
        #: (machine_id, name, generation) -> _Attached
        self._attached: dict[tuple[int, str, int], _Attached] = {}
        self._gen = 0
        self._pinned_bytes = 0

    # -- publisher side ----------------------------------------------------

    def publish(self, obj: Any, *, protocol: int = 5,
                backing: str = "shm") -> Publication:
        """Pin one pickled copy of *obj* and return its handle.

        Publishing an already-published object returns the existing
        handle (dedup by identity).  ``backing="shm"`` pins a named
        shared-memory segment (cross-process, the mp backend);
        ``backing="local"`` keeps the payload in process memory (the
        single-process inline and sim backends).
        """
        if isinstance(obj, Publication):
            return obj
        with self._lock:
            entry = self._by_id.get(id(obj))
            if entry is not None and entry[0] is obj:
                for pub_ in self._published.values():
                    if pub_.obj is obj:
                        return pub_.handle
        header, raws = serde.dumps(obj, protocol)
        lens = [memoryview(b).nbytes for b in raws]
        digest = hashlib.sha256()
        digest.update(header)
        for b in raws:
            digest.update(b)
        digest16 = digest.digest()[:16]
        index = _IDX_HEAD.pack(len(raws), len(header))
        if lens:
            index += struct.pack(f"<{len(lens)}Q", *lens)
        with self._lock:
            self._gen += 1
            generation = self._gen
        trailer = PUB_MAGIC + _DESC_FIXED.pack(0, generation, digest16)
        body_size = len(trailer) + len(index) + len(header) + sum(lens)
        name = (f"{shm.SHM_NAME_PREFIX}pub-{os.getpid():x}-"
                f"{secrets.token_hex(6)}")
        parts = [trailer, index, header, *raws]
        seg = payload = None
        if backing == "shm":
            try:
                seg = shm.Segment.create(name, parts)
            except TransportError as exc:
                raise PublicationError(
                    f"cannot pin {body_size} B publication: {exc}") from exc
        else:
            payload = b"".join(bytes(p) for p in parts)
        handle = Publication(name, body_size, generation, digest16)
        record = _Published(handle, obj, seg, payload)
        with self._lock:
            self._published[name] = record
            self._by_id[id(obj)] = (obj, handle.descriptor)
            self._pinned_bytes += body_size
            pinned = self._pinned_bytes
        _mark_emitted()
        c = counters()
        c.inc("pub.published")
        c.record_max("pub.pinned_bytes", pinned)
        log.debug("published %s: %d B as %s (gen %d)",
                  type(obj).__name__, body_size, name, generation)
        return handle

    def unpublish(self, name: str) -> bool:
        with self._lock:
            record = self._published.pop(name, None)
            if record is None:
                return False
            entry = self._by_id.get(id(record.obj))
            if entry is not None and entry[0] is record.obj:
                del self._by_id[id(record.obj)]
            self._pinned_bytes -= record.size
            # Local attach copies of this publication die with it.
            for key in [k for k in self._attached if k[1] == name]:
                del self._attached[key]
        if record.seg is not None:
            record.seg.unlink()
            try:
                record.seg.close()
            except BufferError:  # pragma: no cover - a resolved view lives on
                pass
        return True

    def is_published(self, obj: Any) -> bool:
        entry = self._by_id.get(id(obj))
        return entry is not None and entry[0] is obj

    def handle_for(self, obj: Any) -> Optional[Publication]:
        """The live handle for an object published in this process."""
        with self._lock:
            for record in self._published.values():
                if record.obj is obj:
                    return record.handle
        return None

    def local_payload(self, name: str):
        """Publisher-side payload view (no shm attach needed), or None."""
        with self._lock:
            record = self._published.get(name)
        if record is None:
            return None
        if record.payload is not None:
            return memoryview(record.payload)
        return record.seg.buf[:record.size]

    # -- receiver side -----------------------------------------------------

    def resolve(self, descriptor: bytes, machine: int) -> Any:
        name, size, generation, digest = unpack_pub_descriptor(descriptor)
        key = (machine, name, generation)
        with self._lock:
            cached = self._attached.get(key)
        c = counters()
        if cached is not None:
            c.inc("pub.attach_hits")
            return cached.obj
        c.inc("pub.attach_misses")
        view = self.local_payload(name)
        if view is None:
            try:
                view = shm.manager().attach(name, size,
                                            unlink_on_release=False)
            except Exception as exc:
                raise PublicationError(
                    f"cannot attach publication {name!r} (gen {generation}):"
                    f" {exc} — the publisher may have unpublished or died"
                ) from exc
        try:
            obj = _decode_payload(view, name, generation, digest)
        except PublicationError:
            if self.local_payload(name) is None:
                shm.manager().release(name)
            raise
        from ..runtime.context import current_hooks
        current_hooks().charge_shm_attach(size)
        with self._lock:
            winner = self._attached.setdefault(key, _Attached(obj, view))
            if winner.obj is obj:
                self._by_id.setdefault(id(obj), (obj, bytes(descriptor)))
        _mark_emitted()
        return winner.obj

    # -- serde hook --------------------------------------------------------

    def _reduce_published(self, obj: Any):
        """``reducer_override`` body: descriptor for published objects,
        ``NotImplemented`` (= normal pickling) for everything else."""
        entry = self._by_id.get(id(obj))
        if entry is None or entry[0] is not obj:
            return NotImplemented
        _mark_emitted()
        return (_resolve_from_wire, (pickle.PickleBuffer(entry[1]),))

    # -- diagnostics / lifecycle -------------------------------------------

    @property
    def pinned_bytes(self) -> int:
        with self._lock:
            return self._pinned_bytes

    def published_names(self) -> list[str]:
        with self._lock:
            return sorted(self._published)

    def shutdown(self) -> None:
        """Unpublish everything this process pinned (exit path)."""
        for name in self.published_names():
            self.unpublish(name)
        with self._lock:
            self._attached.clear()
            self._by_id.clear()


def _decode_payload(view, name: str, generation: int, digest: bytes) -> Any:
    """Decode one pinned payload, checking the embedded identity trailer.

    The trailer (magic, generation, digest) written at publish time is
    compared against the wire descriptor: a recycled segment name or a
    corrupted descriptor fails here in O(1) instead of decoding garbage.
    """
    mv = view if isinstance(view, memoryview) else memoryview(view)
    tlen = len(PUB_MAGIC) + _DESC_FIXED.size
    if mv.nbytes < tlen + _IDX_HEAD.size:
        raise PublicationError(
            f"publication {name!r} payload is truncated")
    if bytes(mv[:len(PUB_MAGIC)]) != PUB_MAGIC:
        raise PublicationError(
            f"publication {name!r} payload has a foreign layout")
    _, seg_gen, seg_digest = _DESC_FIXED.unpack_from(
        bytes(mv[len(PUB_MAGIC):tlen]), 0)
    if seg_gen != generation or seg_digest != digest:
        raise PublicationError(
            f"publication {name!r} is stale: descriptor names generation "
            f"{generation}, segment holds generation {seg_gen} "
            f"(digest {'match' if seg_digest == digest else 'mismatch'})")
    try:
        nbuf, hlen = _IDX_HEAD.unpack_from(bytes(mv[tlen:tlen
                                                    + _IDX_HEAD.size]), 0)
        pos = tlen + _IDX_HEAD.size
        lens = []
        if nbuf:
            lens = list(struct.unpack_from(f"<{nbuf}Q", bytes(
                mv[pos:pos + 8 * nbuf]), 0))
            pos += 8 * nbuf
        header = mv[pos:pos + hlen]
        if header.nbytes != hlen:
            raise PublicationError(
                f"publication {name!r} payload is truncated")
        pos += hlen
        buffers = []
        for n in lens:
            buffers.append(mv[pos:pos + n])
            pos += n
        return serde.loads(header, buffers)
    except PublicationError:
        raise
    except Exception as exc:
        raise PublicationError(
            f"cannot decode publication {name!r}: {exc}") from exc


class BrokenPublication:
    """Placeholder for a publication whose payload could not be attached.

    Descriptors resolve *while a message is being decoded off the wire*;
    raising there would tear down the channel and lose the request id
    along with any chance of a typed reply — the caller would see only a
    timeout.  Deferring instead lets the decode complete: the moment the
    call actually touches the payload, the original
    :class:`~repro.errors.PublicationError` is re-raised inside the
    method, and the dispatch layer reports it back to the caller as an
    ordinary retryable remote failure.
    """

    __slots__ = ("error",)

    def __init__(self, error: PublicationError) -> None:
        object.__setattr__(self, "error", error)

    def __getattr__(self, name: str):
        raise object.__getattribute__(self, "error")

    def __len__(self) -> int:
        raise self.error

    def __iter__(self):
        raise self.error

    def __getitem__(self, key):
        raise self.error

    def __call__(self, *args, **kwargs):
        raise self.error

    def __bool__(self) -> bool:
        raise self.error

    def __reduce_ex__(self, protocol: int):
        raise self.error

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BrokenPublication({self.error!r})"


def _resolve_from_wire(descriptor) -> Any:
    """Reconstructor every publication descriptor unpickles through.

    Attach failures (publisher unpublished or died, stale descriptor)
    are deferred via :class:`BrokenPublication` rather than raised — see
    its docstring for why raising mid-decode would be worse.
    """
    from ..runtime.context import current_machine_id
    machine = current_machine_id()
    try:
        return registry().resolve(bytes(descriptor),
                                  -1 if machine is None else machine)
    except PublicationError as exc:
        return BrokenPublication(exc)


# ---------------------------------------------------------------------------
# Process-wide singleton + serde wiring
# ---------------------------------------------------------------------------


_registry: Optional[PubRegistry] = None
_registry_lock = threading.Lock()

#: flipped the first time any descriptor is emitted in this process —
#: gates the per-buffer descriptor sniff in the wire staging path and the
#: per-dumps reducer installation (never reset; the residual cost is one
#: dict lookup per pickled object).
_emitted = False


def _mark_emitted() -> None:
    global _emitted
    if not _emitted:
        _emitted = True


def descriptors_possible() -> bool:
    """May outbound buffers contain publication descriptors?"""
    return _emitted


_suppress = threading.local()


def _suppressed() -> bool:
    return getattr(_suppress, "depth", 0) > 0


@contextlib.contextmanager
def suppress_descriptors():
    """Encode publications *by value* on this thread while active.

    The tcp backend wraps message encoding for non-local peers in this
    context: a ``BUF_PUB``/``BUF_SHM`` descriptor names segments in the
    sender host's ``/dev/shm``, which a foreign host cannot attach, so
    the wire must carry the payload itself.  Both the serde
    reducer-override (published objects found inside arguments) and
    :meth:`Publication.__reduce_ex__` (explicit handles) honor it.
    Reentrant; per-thread, so local peers on other threads keep the
    zero-copy path.
    """
    _suppress.depth = getattr(_suppress, "depth", 0) + 1
    try:
        yield
    finally:
        _suppress.depth -= 1


def _inline_value(value: Any) -> Any:
    """Reconstructor for publications encoded by value (see
    :func:`suppress_descriptors`); the identity function, but importable
    on any receiving host."""
    return value


def registry() -> PubRegistry:
    """The process-wide registry (recreated after fork)."""
    global _registry
    with _registry_lock:
        if _registry is None or _registry.pid != os.getpid():
            _registry = PubRegistry()
        return _registry


def _serde_hook():
    """Per-``dumps`` gate: the published-object reducer, or None."""
    if not _emitted or _suppressed():
        return None
    reg = _registry
    if reg is None or reg.pid != os.getpid() or not reg._by_id:
        return None
    return reg._reduce_published


serde.set_publication_hook(_serde_hook)


@atexit.register
def _shutdown_at_exit() -> None:  # pragma: no cover - exit path
    with _registry_lock:
        reg = _registry
    if reg is not None and reg.pid == os.getpid():
        reg.shutdown()
