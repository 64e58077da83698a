"""Publication layer: descriptors, registry, attach table, cleanup.

Covers the zero-copy broadcast transport in isolation (no cluster):
descriptor round trips, digest/generation staleness detection,
identity-dedupe, one-decode-per-machine caching, counter accounting,
publisher-owned unlink, and the serde substitution that ships published
objects as descriptors wherever they appear.
"""

from __future__ import annotations

import os
import pickle

import numpy as np
import pytest

import repro as oopp
from repro.errors import PublicationError, TransportError
from repro.obs.metrics import counters
from repro.runtime.futures import RETRYABLE_ERRORS
from repro.transport import pub, serde, shm


class Payload:
    """A publishable object (custom class: by-value substitution works)."""

    def __init__(self, blob: bytes) -> None:
        self.blob = blob

    def __eq__(self, other) -> bool:
        return isinstance(other, Payload) and other.blob == self.blob


class TestDescriptor:
    def test_round_trip(self):
        desc = pub.pack_pub_descriptor("oopp-pub-x", 123, 7, b"d" * 16)
        assert pub.unpack_pub_descriptor(desc) == \
            ("oopp-pub-x", 123, 7, b"d" * 16)

    def test_is_descriptor(self):
        desc = pub.pack_pub_descriptor("oopp-pub-x", 123, 7, b"d" * 16)
        assert pub.is_descriptor(desc)
        assert not pub.is_descriptor(b"not a descriptor at all....")
        assert not pub.is_descriptor(b"")
        assert not pub.is_descriptor(pub.PUB_MAGIC)  # truncated
        assert not pub.is_descriptor(desc + bytes(pub._MAX_DESC_LEN))

    def test_malformed_rejected(self):
        with pytest.raises(PublicationError):
            pub.unpack_pub_descriptor(b"XXXXXXXX" + bytes(40))
        with pytest.raises(PublicationError):
            pub.unpack_pub_descriptor(pub.PUB_MAGIC + b"\x01")

    def test_foreign_segment_name_rejected(self):
        desc = pub.pack_pub_descriptor("oopp-pub-x", 1, 1, bytes(16))
        alien = desc.replace(b"oopp-pub-x", b"psm_aaaaaa")
        with pytest.raises(PublicationError, match="foreign"):
            pub.unpack_pub_descriptor(alien)


class TestRegistry:
    def test_publish_resolve_shm(self):
        obj = Payload(b"x" * 100_000)
        handle = pub.registry().publish(obj, backing="shm")
        assert handle.nbytes > 100_000
        assert handle.name in shm.host_shm_names()
        got = handle.get()
        assert got == obj
        assert handle.get() is got  # attach table caches one decode

    def test_publish_resolve_local(self):
        obj = Payload(b"y" * 50_000)
        handle = pub.registry().publish(obj, backing="local")
        assert handle.name not in shm.host_shm_names()
        assert handle.get() == obj

    def test_identity_dedupe(self):
        obj = Payload(b"z" * 1000)
        reg = pub.registry()
        assert reg.publish(obj) is reg.publish(obj)
        # An equal-but-distinct object pins its own payload.
        other = Payload(b"z" * 1000)
        assert reg.publish(other) is not reg.publish(obj)

    def test_publish_a_handle_is_a_noop(self):
        reg = pub.registry()
        handle = reg.publish(Payload(b"w" * 64))
        assert reg.publish(handle) is handle

    def test_unpublish_idempotent_and_unlinks(self):
        handle = pub.registry().publish(Payload(b"q" * 8192), backing="shm")
        assert handle.name in shm.host_shm_names()
        assert handle.unpublish()
        assert handle.name not in shm.host_shm_names()
        assert not handle.unpublish()

    def test_publish_on_full_shm_raises_and_leaves_nothing(
            self, shm_full, open_fds):
        # Was a SIGBUS in the per-part copy; see docs/FAILURES.md.
        reg = pub.registry()
        before, fds = shm.host_shm_names(), open_fds()
        with pytest.raises(PublicationError,
                           match=r"cannot pin \d+ B.*No space"):
            reg.publish(Payload(b"f" * 8192), backing="shm")
        assert shm.host_shm_names() == before and open_fds() == fds
        assert reg.pinned_bytes == 0 and not reg.published_names()

    @pytest.mark.parametrize("n", [1, 41, 5000])
    def test_publish_continues_a_short_write(self, short_write, n):
        # 41 stops one byte past the 40-byte trailer, inside the index;
        # 5000 inside the out-of-band buffer.
        short_write.n = n
        obj = {"blob": b"p" * 3000, "grid": np.arange(2048.0)}
        handle = pub.registry().publish(obj, backing="shm")
        assert short_write.n is None, "the short write happened"
        assert os.stat(f"/dev/shm/{handle.name}").st_size == handle.nbytes
        got = handle.get()
        assert got["blob"] == obj["blob"]
        assert np.array_equal(got["grid"], obj["grid"])

    def test_resolve_after_unpublish_raises_retryable(self):
        handle = pub.registry().publish(Payload(b"r" * 8192), backing="shm")
        handle.unpublish()
        with pytest.raises(PublicationError) as err:
            handle.get()
        # The attach failure must be retryable per docs/FAILURES.md.
        assert isinstance(err.value, TransportError)
        assert isinstance(err.value, RETRYABLE_ERRORS)

    def test_stale_descriptor_detected(self):
        # A descriptor whose digest disagrees with the pinned payload
        # (corruption, or a recycled name from an older generation) must
        # fail fast, not decode garbage.
        reg = pub.registry()
        handle = reg.publish(Payload(b"s" * 4096), backing="shm")
        tampered = bytearray(handle.descriptor)
        tampered[-len(handle.name) - 1] ^= 0xFF  # flip a digest byte
        with pytest.raises(PublicationError, match="stale"):
            reg.resolve(bytes(tampered), machine=0)

    def test_counters(self):
        c = counters()
        base_pub = c.get("pub.published")
        base_miss = c.get("pub.attach_misses")
        base_hit = c.get("pub.attach_hits")
        handle = pub.registry().publish(Payload(b"c" * 2048))
        assert c.get("pub.published") == base_pub + 1
        handle.get()
        handle.get()
        handle.get()
        assert c.get("pub.attach_misses") == base_miss + 1
        assert c.get("pub.attach_hits") == base_hit + 2
        assert c.get("pub.pinned_bytes") >= handle.nbytes

    def test_pinned_bytes_is_a_peak_gauge(self):
        reg = pub.registry()
        h1 = reg.publish(Payload(b"a" * 10_000))
        h2 = reg.publish(Payload(b"b" * 10_000))
        peak = counters().get("pub.pinned_bytes")
        assert peak >= h1.nbytes + h2.nbytes
        h1.unpublish()
        h2.unpublish()
        assert reg.pinned_bytes == 0
        # record_max: the peak survives the unpublish.
        assert counters().get("pub.pinned_bytes") == peak

    def test_shutdown_sweeps_everything(self):
        reg = pub.registry()
        names = [reg.publish(Payload(bytes([i]) * 4096), backing="shm").name
                 for i in range(3)]
        reg.shutdown()
        live = set(shm.host_shm_names())
        assert not (set(names) & live)


class TestSerdeSubstitution:
    def test_published_object_ships_as_descriptor(self):
        obj = Payload(b"big" * 100_000)
        pub.registry().publish(obj)
        header, bufs = serde.dumps((1, obj, "x"), 5)
        sizes = [memoryview(b).nbytes for b in bufs]
        assert len(header) + sum(sizes) < 1000  # payload did not ship
        assert any(pub.is_descriptor(b) for b in bufs)
        decoded = serde.loads(header, [bytes(b) for b in bufs])
        assert decoded[0] == 1 and decoded[2] == "x"
        assert decoded[1] == obj

    def test_nested_published_object_substitutes(self):
        obj = Payload(b"n" * 50_000)
        pub.registry().publish(obj)
        value = {"deep": [(obj,), {"k": obj}]}
        header, bufs = serde.dumps(value, 5)
        assert len(header) + sum(memoryview(b).nbytes for b in bufs) < 1000
        decoded = serde.loads(header, [bytes(b) for b in bufs])
        inner = decoded["deep"][0][0]
        assert inner == obj
        assert decoded["deep"][1]["k"] is inner  # one decode, shared

    def test_handle_unpickles_to_the_value(self):
        obj = Payload(b"h" * 9000)
        handle = pub.registry().publish(obj)
        header, bufs = serde.dumps(handle, 5)
        assert serde.loads(header, [bytes(b) for b in bufs]) == obj

    def test_handle_protocol4_fallback(self):
        obj = Payload(b"p4" * 4000)
        handle = pub.registry().publish(obj)
        assert pickle.loads(pickle.dumps(handle, protocol=4)) == obj

    def test_unpublished_objects_pickle_normally(self):
        # With no live publication the hook stays out of the way.
        obj = Payload(b"plain" * 2000)
        header, bufs = serde.dumps(obj, 5)
        assert serde.loads(header, [bytes(b) for b in bufs]) == obj

    def test_forwarding_reships_the_descriptor(self):
        # A process that *received* a published object re-ships the
        # descriptor when the object is forwarded onward, not a fresh
        # payload — the attach table registers decoded objects by id.
        obj = Payload(b"f" * 80_000)
        handle = pub.registry().publish(obj)
        received = handle.get()  # the attach-table decode (same process)
        header, bufs = serde.dumps([received], 5)
        assert len(header) + sum(memoryview(b).nbytes for b in bufs) < 1000
        assert serde.loads(header, [bytes(b) for b in bufs])[0] is received

    def test_nominal_size_counts_descriptor_not_payload(self):
        obj = Payload(b"nom" * 100_000)
        handle = pub.registry().publish(obj)
        assert serde.nominal_size_of(handle, 5) == len(handle.descriptor)
        # By value, the substitution makes the true encoded size small.
        assert serde.nominal_size_of(obj, 5) < 1000


class TestFabricSweep:
    @pytest.mark.parametrize("backend", [
        "inline", "mp", pytest.param("tcp", marks=pytest.mark.tcp)])
    def test_cluster_shutdown_unpins(self, tmp_path, backend):
        """Every backend unpins its publications when the cluster shuts
        down — after the machines that attached them are gone.  (mp
        used to skip the sweep and strand the segment in /dev/shm.)"""
        np = pytest.importorskip("numpy")
        with oopp.Cluster(n_machines=2, backend=backend, call_timeout_s=60.0,
                          storage_root=str(tmp_path / "r")) as cluster:
            handle = cluster.publish(np.zeros(1 << 20))
            assert handle.name in pub.registry().published_names()
        assert pub.registry().published_names() == []
        assert not [n for n in shm.host_shm_names() if "-pub-" in n]
        with pytest.raises(PublicationError):
            handle.get()  # unpinned at shutdown
