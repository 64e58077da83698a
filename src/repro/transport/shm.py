"""Same-host zero-copy transport through named shared-memory segments.

The mp backend always runs caller and callee on one host, so a bulk
buffer never needs to traverse the socket at all: the sender writes it
once into a named segment (:class:`Segment`, a file under Linux
``/dev/shm`` — the one platform requirement) and ships only a small
*descriptor* (name + size) in the frame; the receiver maps the segment
and hands the runtime a writable view of the same physical pages.  One
copy total (sender staging), zero copies on the receive side — versus
~3 for the socket path (kernel buffer, reassembly, and the consumer's
own copy).

Ownership protocol
------------------
* The **sender** creates the segment, fills it with ``write(2)``,
  closes the fd and forgets it.  It never maps: faulting fresh tmpfs
  pages in just to overwrite them doubles the cost under the GIL, and a
  full ``/dev/shm`` is ``SIGBUS`` there but ``ENOSPC`` here.  If the
  send fails before the frame leaves, the sender unlinks (the receiver
  can never have seen the name).
* The **receiver** owns cleanup (the paper's kernel object is the
  natural owner, hence "refcounted cleanup on the receiving kernel"):
  every decoded message holds one reference per segment, released via a
  GC finalizer when the message dies; consumers that *adopt* the view as
  long-lived backing storage (:class:`repro.storage.page.Page`) take a
  reference of their own.  At refcount zero the segment is **unlinked**
  immediately — the ``/dev/shm`` name disappears and can never leak —
  and the mapping is closed as soon as no live view pins it (POSIX keeps
  the memory valid for exactly as long as something still maps it, so a
  straggling numpy view stays safe after the unlink).

Faults compose: a message dropped or corrupted in flight dies
unreferenced, its finalizer runs, and the segment is unlinked — the
chaos suite checks ``/dev/shm`` before and after.  An ``atexit`` sweep
unlinks whatever a process still holds when it dies politely.
"""

from __future__ import annotations

import atexit
import mmap
import os
import secrets
import struct
import threading
import weakref
from dataclasses import dataclass
from typing import Optional

from ..errors import TransportError
from ..util.hostid import fingerprint_bytes, host_fingerprint

#: all segment names carry this prefix — /dev/shm stays auditable.
SHM_NAME_PREFIX = "oopp-"

#: wire descriptor: segment payload size + exporter host fingerprint,
#: then the ascii name.  The fingerprint makes locality explicit: a
#: descriptor names pages in the *exporting host's* /dev/shm, so a
#: receiver on any other box must refuse it rather than attach a
#: nonexistent (or unrelated same-named) segment.
_DESC = struct.Struct("<Q16s")

_SHM_DIR = "/dev/shm"
_IOV_MAX = os.sysconf("SC_IOV_MAX")
_CREATE = os.O_CREAT | os.O_EXCL | os.O_RDWR


def _path(name: str) -> str:
    # Names arrive off the wire and end up in a path.
    if "/" in name or "\0" in name:
        raise TransportError(f"shm segment name {name!r} is not a file name")
    return f"{_SHM_DIR}/{name}"


@dataclass(slots=True)
class Segment:
    """One named ``/dev/shm`` file: filled through its fd by the side
    that creates it, mapped only by a side that reads it."""

    name: str
    fd: int
    size: int
    _map: Optional[mmap.mmap] = None

    @classmethod
    def create(cls, name: str, parts) -> "Segment":
        """A new segment holding *parts* back to back (one zero byte for
        none: an empty file cannot be mapped), or nothing left behind."""
        pending = [v.cast("B") for p in parts
                   if (v := memoryview(p)).nbytes] or [memoryview(b"\0")]
        size = sum(v.nbytes for v in pending)
        seg = None
        try:
            seg = cls(name, os.open(_path(name), _CREATE, 0o600), size)
            while pending:
                # Short counts are normal: one call moves at most 2 GiB,
                # and a nearly full tmpfs takes what fits before ENOSPC.
                n = os.writev(seg.fd, pending[:_IOV_MAX])
                while pending and n >= pending[0].nbytes:
                    n -= pending.pop(0).nbytes
                if n:
                    pending[0] = pending[0][n:]
            return seg
        except OSError as exc:
            raise TransportError(
                f"cannot stage {size} B in a new shm segment: {exc}") from exc
        finally:
            if seg is not None and pending:  # whatever stopped the writes
                seg.close()
                seg.unlink()

    @classmethod
    def open(cls, name: str) -> "Segment":
        fd = os.open(_path(name), os.O_RDWR | os.O_NOFOLLOW)  # as shm_open
        return cls(name, fd, os.fstat(fd).st_size)

    @property
    def buf(self) -> memoryview:
        """A writable view of the whole segment, mapped on first use."""
        if self._map is None:
            self._map = mmap.mmap(self.fd, self.size)
        return memoryview(self._map)

    def close(self) -> None:
        """Unmap, close the fd; ``BufferError`` while a view is alive."""
        if self._map is not None:
            self._map.close()
            self._map = None
        if self.fd >= 0:
            os.close(self.fd)
            self.fd = -1

    def unlink(self) -> None:
        _unlink(self.name)


def _unlink(name: str) -> None:
    try:
        os.unlink(_path(name))
    except FileNotFoundError:  # the other side cleaned up first
        pass


def pack_descriptor(name: str, size: int) -> bytes:
    return _DESC.pack(size, fingerprint_bytes()) + name.encode("ascii")


def unpack_descriptor(data: bytes) -> tuple[str, int]:
    data = bytes(data)
    try:
        size, fp = _DESC.unpack_from(data, 0)
        name = data[_DESC.size:].decode("ascii")
        fp_str = fp.decode("ascii")
    except (struct.error, UnicodeDecodeError) as exc:
        raise TransportError(f"malformed shm descriptor: {exc}") from exc
    if not name.startswith(SHM_NAME_PREFIX):
        raise TransportError(f"shm descriptor names foreign segment {name!r}")
    local = host_fingerprint()
    if fp_str != local:
        raise TransportError(
            f"shm descriptor {name!r} was exported on host {fp_str} but "
            f"this process runs on host {local}; shared memory does not "
            f"cross hosts (the sender should downgrade to inline payloads "
            f"— see docs/BACKENDS.md)")
    return name, size


# ---------------------------------------------------------------------------
# Send side
# ---------------------------------------------------------------------------


#: names this process exported whose receiver may never have attached
#: (peer crashed mid-conversation).  Normally the receiver unlinks long
#: before we look again; the exit sweep reclaims whatever it left behind.
_exported: set[str] = set()
_exported_pid = os.getpid()
_exported_lock = threading.Lock()
_EXPORTED_PRUNE_AT = 512


def _note_exported(name: str) -> None:
    global _exported, _exported_pid
    with _exported_lock:
        if _exported_pid != os.getpid():  # forked child: not our segments
            _exported = set()
            _exported_pid = os.getpid()
        _exported.add(name)
        if len(_exported) >= _EXPORTED_PRUNE_AT:
            # Receivers unlink promptly; drop names already gone so the
            # set stays bounded on long-running senders.
            _exported = {n for n in _exported if os.path.exists(_path(n))}


def _reclaim_exported() -> None:
    """Unlink exported segments that still exist (exit path)."""
    with _exported_lock:
        if _exported_pid != os.getpid():
            return
        names = list(_exported)
        _exported.clear()
    for name in names:
        _unlink(name)  # usually gone already: the receiver unlinks


class OutboundSegment:
    """A filled segment waiting for its frame to hit the wire."""

    def __init__(self, name: str, size: int) -> None:
        self.name = name
        self.descriptor = pack_descriptor(name, size)

    def commit(self) -> None:
        """The frame was sent: the receiver owns the segment now (with
        the sender's exit sweep as the crash net)."""
        _note_exported(self.name)

    def abort(self) -> None:
        """The frame never left: reclaim the segment."""
        _unlink(self.name)


def export_buffer(view: memoryview) -> OutboundSegment:
    """Stage *view* (flat u8, from :func:`repro.transport.serde.dumps`)
    into a fresh segment: one copy, no mapping."""
    size = view.nbytes
    name = f"{SHM_NAME_PREFIX}{os.getpid():x}-{secrets.token_hex(6)}"
    Segment.create(name, [view]).close()
    manager().count_copy(size)
    return OutboundSegment(name, size)


# ---------------------------------------------------------------------------
# Receive side
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class _Entry:
    seg: Segment
    view: memoryview
    #: whether this process unlinks the segment at refcount zero.
    #: Per-call transfers are receiver-owned (True); *publication*
    #: segments (:mod:`repro.transport.pub`) are publisher-owned —
    #: an attaching process only ever closes its mapping.
    unlink: bool
    refs: int = 0


class ShmManager:
    """Per-process registry of attached segments with refcounted unlink.

    Fork-aware: a child process inherits the parent's module state but
    must not unlink segments the parent still uses, so the singleton
    resets itself when the pid changes.
    """

    def __init__(self) -> None:
        self._pid = os.getpid()
        self._lock = threading.Lock()
        self._entries: dict[str, _Entry] = {}
        #: id(view) -> name, for consumers adopting a received view.
        self._by_view: dict[int, str] = {}
        #: unlinked segments whose mapping is still pinned by live views.
        self._zombies: list[Segment] = []
        self._bytes_copied = 0
        self._attached_total = 0

    # -- attach / release --------------------------------------------------

    def attach(self, name: str, size: int, *,
               unlink_on_release: bool = True) -> memoryview:
        """Map *name* (or find it already mapped) and take one reference.

        ``unlink_on_release=False`` marks the segment publisher-owned:
        at refcount zero (and at shutdown) this process only closes its
        mapping — the ``/dev/shm`` name is the publisher's to unlink
        (the publication layer's lifecycle, see :mod:`..pub`).
        """
        with self._lock:
            entry = self._entries.get(name)
            if entry is None:
                seg = None
                try:
                    seg = Segment.open(name)
                    if seg.size < size:
                        raise ValueError(f"it holds {seg.size} B, the "
                                         f"descriptor claims {size} B")
                    view = seg.buf[:size]
                except (OSError, ValueError) as exc:  # ValueError: mmap's too
                    if seg is not None:
                        seg.close()
                    raise TransportError(
                        f"cannot attach shm segment {name!r}: {exc}") from exc
                entry = self._entries[name] = _Entry(
                    seg, view, unlink_on_release)
                self._by_view[id(view)] = name
                self._attached_total += 1
            entry.refs += 1
            return entry.view

    def addref(self, name: str) -> bool:
        with self._lock:
            entry = self._entries.get(name)
            if entry is None:
                return False
            entry.refs += 1
            return True

    def release(self, name: str) -> None:
        """Drop one reference; at zero, unlink and (if possible) unmap."""
        with self._lock:
            entry = self._entries.get(name)
            if entry is None:
                return
            entry.refs -= 1
            if entry.refs > 0:
                return
            del self._entries[name]
            self._by_view.pop(id(entry.view), None)
            self._reap(entry)
            self._sweep_zombies()

    def _reap(self, entry: _Entry) -> None:
        # Unlink first: the /dev/shm name must go even if views pin the
        # mapping (POSIX keeps the memory alive until the last unmap).
        # Publisher-owned segments (entry.unlink False) are never ours
        # to unlink — just drop the mapping.
        if entry.unlink:
            entry.seg.unlink()
        try:
            entry.view.release()
            entry.seg.close()
        except BufferError:
            # A consumer still aliases the memory; keep the mapping open
            # (the memory stays valid) and retry on later sweeps.
            self._zombies.append(entry.seg)

    def _sweep_zombies(self) -> None:
        survivors = []
        for seg in self._zombies:
            try:
                seg.close()
            except BufferError:
                survivors.append(seg)
        self._zombies = survivors

    # -- adoption (long-lived consumers) ----------------------------------

    def name_of(self, buf) -> Optional[str]:
        """The segment name behind a received view, or None."""
        if not isinstance(buf, memoryview):
            return None
        with self._lock:
            return self._by_view.get(id(buf))

    def adopt(self, owner, buf: memoryview) -> bool:
        """Let *owner* keep *buf* as backing storage: take a reference
        released when *owner* is garbage-collected.  Returns False when
        *buf* is not a live shm view (nothing to do)."""
        name = self.name_of(buf)
        if name is None or not self.addref(name):
            return False
        weakref.finalize(owner, self.release, name)
        return True

    def bind_message(self, msg, names: list[str]) -> None:
        """Tie one already-taken reference per segment to *msg*'s lifetime."""
        for name in names:
            weakref.finalize(msg, self.release, name)

    # -- diagnostics / lifecycle -------------------------------------------

    def count_copy(self, nbytes: int) -> None:
        with self._lock:
            self._bytes_copied += nbytes

    def stats(self) -> dict:
        with self._lock:
            return {
                "segments_live": len(self._entries),
                "segments_attached_total": self._attached_total,
                "bytes_copied": self._bytes_copied,
                "zombie_mappings": len(self._zombies),
            }

    def active_names(self) -> list[str]:
        with self._lock:
            return sorted(self._entries)

    def shutdown(self) -> None:
        """Unlink everything still registered (process exit path)."""
        with self._lock:
            entries = list(self._entries.values())
            self._entries.clear()
            self._by_view.clear()
        for entry in entries:
            self._reap(entry)
        self._sweep_zombies()


_manager: Optional[ShmManager] = None
_manager_lock = threading.Lock()


def manager() -> ShmManager:
    """The process-wide manager (recreated after fork)."""
    global _manager
    with _manager_lock:
        if _manager is None or _manager._pid != os.getpid():
            _manager = ShmManager()
        return _manager


@atexit.register
def _shutdown_at_exit() -> None:  # pragma: no cover - exit path
    with _manager_lock:
        mgr = _manager
    if mgr is not None and mgr._pid == os.getpid():
        mgr.shutdown()
    _reclaim_exported()


def host_shm_names() -> list[str]:
    """Framework-created segment names currently visible in /dev/shm
    (diagnostics; used by the chaos suite's leak checks)."""
    try:
        return sorted(n for n in os.listdir(_SHM_DIR)
                      if n.startswith(SHM_NAME_PREFIX))
    except OSError:  # pragma: no cover - non-Linux
        return []
