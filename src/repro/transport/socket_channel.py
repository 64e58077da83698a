"""TCP socket channel used by the multiprocessing backend.

Machines listen on ephemeral localhost ports; the driver and peer
machines dial in.  The socket is wrapped in buffered file objects and
framed with :mod:`repro.transport.frames`.

The channel optionally speaks the wire *fast path* (``docs/WIRE.md``):
cached call headers (``KIND_CALL`` frames), multi-message envelopes
(``KIND_BATCH``, via :meth:`SocketChannel.send_batch`), and same-host
zero-copy buffers through shared memory (``BUF_SHM`` sections).  Each
feature is opt-in per channel through :class:`WireOptions` on the
*send* side only — every channel always understands all of them on
receive, so peers with different options interoperate.
"""

from __future__ import annotations

import socket
import struct
import threading
from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

from ..config import DEFAULT_HOST
from ..errors import (
    ChannelClosedError,
    ChannelTimeoutError,
    FramingError,
    SerializationError,
    TransportError,
)
from . import pub, serde, shm
from .channel import Channel
from .frames import (
    BUF_INLINE,
    BUF_PUB,
    BUF_SHM,
    KIND_BATCH,
    KIND_CALL,
    KIND_MSG,
    FrameReader,
    FrameWriter,
    pack_batch,
    split_batch,
)
from .message import ErrorResponse, Message, Request, Response

_CALL_SKEL = struct.Struct("<I")

#: memoized import of the runtime-layer header cache — runtime.protocol
#: pulls in the proxy layer, which the transport package must not import
#: at module load (and a per-message ``import`` costs a dict lookup).
_call_cache = None


def _header_cache():
    global _call_cache
    if _call_cache is None:
        from ..runtime.protocol import call_header_cache

        _call_cache = call_header_cache
    return _call_cache


@dataclass(frozen=True)
class WireOptions:
    """Send-side fast-path switches for one channel (receive always
    understands everything)."""

    header_cache: bool = False
    shm_enabled: bool = False
    shm_threshold: int = 1 << 20
    #: allow BUF_PUB publication descriptors on this channel.  False for
    #: peers on *other hosts* (the tcp backend keys this off the
    #: handshake fingerprint): descriptors name segments in the sender
    #: host's /dev/shm, so a foreign peer must receive payloads inline.
    pub_descriptors: bool = True

    @classmethod
    def from_config(cls, cfg) -> "WireOptions":
        wire = cfg.wire
        return cls(header_cache=wire.header_cache,
                   shm_enabled=wire.shm,
                   shm_threshold=wire.shm_threshold_bytes)


class _SockReader:
    """Buffered file-like reader over a raw socket, safe under timeouts.

    ``sock.makefile("rb")`` cannot be used here: after one ``recv``
    timeout CPython's ``SocketIO`` latches ``_timeout_occurred`` and
    every later read raises "cannot read from timed out object", and a
    ``BufferedReader`` may silently discard bytes it consumed before the
    timeout.  ``sock.recv`` has neither problem — a timed-out recv
    consumes nothing — so a timeout at a frame boundary leaves the
    stream exactly where it was and the channel stays usable.
    """

    _CHUNK = 1 << 16

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._buf = b""

    def read(self, n: int) -> bytes:
        """Return up to *n* buffered-or-received bytes (b"" at EOF)."""
        if self._buf:
            out, self._buf = self._buf[:n], self._buf[n:]
            return out
        data = self._sock.recv(max(n, self._CHUNK))
        if len(data) > n:
            self._buf = data[n:]
            return data[:n]
        return data

    def close(self) -> None:
        self._buf = b""


class SocketChannel(Channel):
    """A message channel over a connected TCP socket."""

    def __init__(self, sock: socket.socket,
                 options: Optional[WireOptions] = None) -> None:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self._options = options or WireOptions()
        self._rfile = _SockReader(sock)
        self._wfile = sock.makefile("wb", buffering=1 << 16)
        self._reader = FrameReader(self._rfile)
        self._writer = FrameWriter(self._wfile)
        self._send_lock = threading.Lock()
        self._closed = False
        #: decoded messages from a BATCH frame, waiting for recv().
        self._rx_pending: deque[Message] = deque()

    @classmethod
    def connect(cls, host: str, port: int, timeout: float | None = None,
                options: Optional[WireOptions] = None) -> "SocketChannel":
        try:
            sock = socket.create_connection((host, port), timeout=timeout)
        except OSError as exc:
            raise TransportError(f"cannot connect to {host}:{port}: {exc}") from exc
        sock.settimeout(None)
        return cls(sock, options=options)

    # -- encode: messages -> wire frames -----------------------------------

    def _encode_wire(self, msg: Message) -> tuple[int, bytes, list]:
        """Encode *msg* as ``(kind, header, raw_buffers)``."""
        if self._options.header_cache and type(msg) is Request:
            # The span id and vector-clock snapshot ride in the per-call
            # tail, never the cached skeleton: the skeleton is constant
            # per call site while these are unique per call.
            tail, buffers = serde.dumps(
                (msg.request_id, msg.span, msg.clock, msg.args, msg.kwargs),
                self.protocol)
            header = _header_cache().prefix(
                msg.object_id, msg.method, msg.oneway, msg.caller,
                self.protocol) + tail
            return KIND_CALL, header, buffers
        header, buffers = self._encode(msg)
        return KIND_MSG, header, buffers

    def _stage_buffers(self, buffers: Sequence
                       ) -> tuple[list, list[int], list[shm.OutboundSegment]]:
        """Offload big buffers to shared memory and tag descriptors.

        Returns ``(wire_buffers, flags, segments)``; the caller must
        :meth:`~repro.transport.shm.OutboundSegment.commit` the segments
        after a successful send or ``abort`` them on failure.

        Publication descriptors (:mod:`repro.transport.pub`) are lifted
        out of band by the encoder; they ship inline — they are ~100
        bytes — but carry the ``BUF_PUB`` flag so traffic tools can tell
        a broadcast descriptor from payload bytes.  The per-buffer sniff
        runs only once this process has emitted a descriptor, so the
        common no-publication path pays nothing.
        """
        opts = self._options
        sniff_pub = pub.descriptors_possible()
        if not opts.shm_enabled and not sniff_pub:
            return list(buffers), [BUF_INLINE] * len(buffers), []
        wire: list = []
        flags: list[int] = []
        segments: list[shm.OutboundSegment] = []
        for buf in buffers:
            view = buf if isinstance(buf, memoryview) else memoryview(buf)
            if sniff_pub and pub.is_descriptor(view):
                wire.append(buf)
                flags.append(BUF_PUB)
            elif opts.shm_enabled and view.nbytes >= opts.shm_threshold:
                try:
                    seg = shm.export_buffer(view)
                except BaseException:
                    # This one did not fit (/dev/shm full): the message
                    # goes nowhere, so neither do the ones already staged.
                    for staged in segments:
                        staged.abort()
                    raise
                segments.append(seg)
                wire.append(seg.descriptor)
                flags.append(BUF_SHM)
            else:
                wire.append(buf)
                flags.append(BUF_INLINE)
        return wire, flags, segments

    def _prepare(self, msg: Message
                 ) -> tuple[int, bytes, list, list[int],
                            list[shm.OutboundSegment]]:
        """Encode and stage *msg*.  A :class:`Response` that cannot be
        (unpicklable value, ``/dev/shm`` full) goes out as the
        :class:`ErrorResponse` saying so: the call ran, its caller is
        waiting, and nothing has touched the stream yet."""
        try:
            if not self._options.pub_descriptors:
                # Cross-host peer: publications encode by value (their
                # descriptors name this host's /dev/shm), and
                # _stage_buffers keeps everything inline via
                # shm_enabled=False.
                with pub.suppress_descriptors():
                    kind, header, buffers = self._encode_wire(msg)
            else:
                kind, header, buffers = self._encode_wire(msg)
            wire, flags, segments = self._stage_buffers(buffers)
        except TransportError as exc:
            if type(msg) is not Response:
                raise
            return self._prepare(ErrorResponse(
                request_id=msg.request_id, message=str(exc), exception=exc,
                type_name=f"{type(exc).__module__}.{type(exc).__qualname__}",
                clock=msg.clock))
        return kind, header, wire, flags, segments

    # -- send ----------------------------------------------------------------

    def send(self, msg: Message) -> None:
        kind, header, buffers, flags, segments = self._prepare(msg)
        try:
            with self._send_lock:
                if self._closed:
                    raise ChannelClosedError("channel closed")
                self._write_locked(header, buffers, kind=kind,
                                   buffer_flags=flags)
        except BaseException:
            for seg in segments:
                seg.abort()
            raise
        for seg in segments:
            seg.commit()

    def send_batch(self, msgs: list[Message],
                   max_bytes: Optional[int] = None) -> None:
        """Send several messages, packing them into as few physical
        frames as *max_bytes* allows (one ``KIND_BATCH`` frame per
        group; a group of one degenerates to a plain frame)."""
        if not msgs:
            return
        prepared: list = []
        try:
            for m in msgs:
                prepared.append(self._prepare(m))
        except BaseException:
            for p in prepared:  # one could not be staged: none is sent
                for seg in p[4]:
                    seg.abort()
            raise
        all_segments = [seg for p in prepared for seg in p[4]]
        sent_segments: list[shm.OutboundSegment] = []
        try:
            with self._send_lock:
                if self._closed:
                    raise ChannelClosedError("channel closed")
                group: list = []
                group_bytes = 0
                group_segs: list[shm.OutboundSegment] = []

                def flush_group() -> None:
                    nonlocal group, group_bytes, group_segs
                    if not group:
                        return
                    if len(group) == 1:
                        kind, header, bufs, flags = group[0]
                        self._write_locked(header, bufs, kind=kind,
                                           buffer_flags=flags)
                    else:
                        bh, bb, bf = pack_batch(group)
                        self._write_locked(bh, bb, kind=KIND_BATCH,
                                           buffer_flags=bf)
                    sent_segments.extend(group_segs)
                    group, group_bytes, group_segs = [], 0, []

                for kind, header, bufs, flags, segs in prepared:
                    size = len(header) + sum(
                        memoryview(b).nbytes for b in bufs)
                    if group and max_bytes is not None \
                            and group_bytes + size > max_bytes:
                        flush_group()
                    group.append((kind, header, bufs, flags))
                    group_bytes += size
                    group_segs.extend(segs)
                flush_group()
        except BaseException:
            for seg in all_segments:
                if seg not in sent_segments:
                    seg.abort()
            for seg in sent_segments:
                seg.commit()
            raise
        for seg in all_segments:
            seg.commit()

    def _write_locked(self, header: bytes, buffers: Sequence, *,
                      kind: int, buffer_flags: Sequence[int]) -> None:
        """One framed write; caller holds ``_send_lock``."""
        try:
            self._writer.write(header, buffers, kind=kind,
                               buffer_flags=buffer_flags)
        except (BrokenPipeError, ConnectionResetError) as exc:
            # The peer is definitively gone: latch closed.
            self._closed = True
            raise ChannelClosedError(f"peer gone during send: {exc}") from exc
        except (OSError, ValueError) as exc:
            # Transient OS-level failure (EINTR-style): the peer may be
            # fine, so don't latch the channel closed — let the caller
            # decide whether to retry or tear down.
            raise TransportError(f"send failed: {exc}") from exc

    # -- recv ----------------------------------------------------------------

    def recv(self, timeout: Optional[float] = None) -> Message:
        if self._rx_pending:
            return self._rx_pending.popleft()
        if timeout is not None:
            self._sock.settimeout(timeout)
        try:
            kind, header, buffers, flags = self._reader.read()
        except (ChannelClosedError, FramingError):
            raise
        except socket.timeout as exc:
            if self._reader.mid_frame:
                # Part of a frame was consumed and discarded; the stream
                # can never resync, so this channel is unusable.
                with self._send_lock:
                    self._closed = True
                raise ChannelClosedError(
                    "recv timed out mid-frame; stream desynchronized") from exc
            # No frame had started: the peer is merely slow.  The channel
            # stays usable and the caller may retry.
            raise ChannelTimeoutError(
                f"recv timed out after {timeout}s") from exc
        except (ConnectionResetError, OSError, ValueError) as exc:
            raise ChannelClosedError(f"peer gone during recv: {exc}") from exc
        finally:
            if timeout is not None:
                try:
                    self._sock.settimeout(None)
                except OSError:
                    pass
        if kind == KIND_BATCH:
            items = split_batch(header, buffers, flags)
            msgs = [self._decode_wire(k, h, b, f) for k, h, b, f in items]
            self._rx_pending.extend(msgs[1:])
            return msgs[0]
        return self._decode_wire(kind, header, buffers, flags)

    def _decode_wire(self, kind: int, header: bytes, buffers: list,
                     flags: list[int]) -> Message:
        """Decode one logical frame, resolving shm references."""
        shm_names: list[str] = []
        if BUF_SHM in flags:
            mgr = shm.manager()
            resolved = []
            for buf, flag in zip(buffers, flags):
                if flag == BUF_SHM:
                    name, size = shm.unpack_descriptor(buf)
                    resolved.append(mgr.attach(name, size))
                    shm_names.append(name)
                else:
                    resolved.append(buf)
            buffers = resolved
        try:
            if kind == KIND_CALL:
                msg = self._decode_call(header, buffers)
            else:
                msg = self._decode(header, buffers)
        except BaseException:
            # The message never materialized: drop the references we took.
            mgr = shm.manager()
            for name in shm_names:
                mgr.release(name)
            raise
        if shm_names:
            shm.manager().bind_message(msg, shm_names)
        return msg

    def _decode_call(self, header: bytes, buffers: list) -> Request:
        try:
            (skel_len,) = _CALL_SKEL.unpack_from(header, 0)
        except struct.error as exc:
            raise FramingError(f"truncated CALL header: {exc}") from exc
        if _CALL_SKEL.size + skel_len > len(header):
            raise FramingError("CALL skeleton length exceeds header")
        skel = bytes(header[_CALL_SKEL.size:_CALL_SKEL.size + skel_len])
        tail = header[_CALL_SKEL.size + skel_len:]
        fields = _header_cache().fields_for(skel)
        request_id, span, clock, args, kwargs = serde.loads(tail, buffers)
        return Request(request_id=request_id, span=span, clock=clock,
                       args=args, kwargs=kwargs, **fields)

    def close(self) -> None:
        with self._send_lock:
            if self._closed:
                return
            self._closed = True
        self._rx_pending.clear()
        for f in (self._wfile, self._rfile):
            try:
                f.close()
            except OSError:
                pass
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass

    @property
    def rx_backlog(self) -> int:
        """Decoded BATCH messages ``recv`` has not handed out yet (a hint)."""
        return len(self._rx_pending)

    @property
    def stats(self) -> dict:
        """Traffic counters for diagnostics and benchmarks."""
        return {
            "frames_in": self._reader.frames_in,
            "bytes_in": self._reader.bytes_in,
            "frames_out": self._writer.frames_out,
            "bytes_out": self._writer.bytes_out,
        }


def listen_socket(host: str = DEFAULT_HOST, port: int = 0,
                  backlog: int = 64) -> socket.socket:
    """Create a listening TCP socket on an ephemeral localhost port."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    sock.bind((host, port))
    sock.listen(backlog)
    return sock
