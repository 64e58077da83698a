"""Shared-memory segments: export/attach, refcounts, no /dev/shm leaks."""

from __future__ import annotations

import gc
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

import repro
from repro.errors import TransportError
from repro.transport import shm


class TestDescriptor:
    def test_round_trip(self):
        desc = shm.pack_descriptor("oopp-abc", 12345)
        assert shm.unpack_descriptor(desc) == ("oopp-abc", 12345)

    def test_truncated_rejected(self):
        with pytest.raises(TransportError):
            shm.unpack_descriptor(b"\x01\x02")

    def test_foreign_name_rejected(self):
        desc = shm.pack_descriptor("oopp-x", 1).replace(b"oopp-", b"evil-")
        with pytest.raises(TransportError, match="foreign"):
            shm.unpack_descriptor(desc)

    def test_non_ascii_rejected(self):
        with pytest.raises(TransportError):
            shm.unpack_descriptor(shm.pack_descriptor("oopp-x", 1)[:-1]
                                  + b"\xff")

    @pytest.mark.parametrize("name", ["oopp-/../../tmp/x", "oopp-\0x"])
    def test_name_that_is_not_a_file_name_cannot_attach(self, name):
        # A wire name ends up in a path under /dev/shm: it may not leave
        # the directory (shm_open used to refuse these for us).
        with pytest.raises(TransportError, match="file name"):
            shm.manager().attach(name, 1)


class TestExportAttach:
    def test_payload_round_trips(self):
        payload = os.urandom(4096)
        out = shm.export_buffer(memoryview(payload))
        try:
            name, size = shm.unpack_descriptor(out.descriptor)
            assert size == 4096
            view = shm.manager().attach(name, size)
            assert bytes(view) == payload
        finally:
            out.commit()
            shm.manager().release(name)

    def test_attached_view_is_writable(self):
        out = shm.export_buffer(memoryview(bytes(64)))
        name, size = shm.unpack_descriptor(out.descriptor)
        view = shm.manager().attach(name, size)
        try:
            view[:4] = b"abcd"
            assert bytes(view[:4]) == b"abcd"
        finally:
            out.commit()
            shm.manager().release(name)

    def test_abort_removes_segment(self):
        out = shm.export_buffer(memoryview(bytes(128)))
        name, _ = shm.unpack_descriptor(out.descriptor)
        assert name in shm.host_shm_names()
        out.abort()
        assert name not in shm.host_shm_names()

    def test_attach_unknown_name_raises(self):
        with pytest.raises(TransportError, match="attach"):
            shm.manager().attach("oopp-no-such-segment", 16)

    def test_attach_rejects_undersized_segment(self):
        out = shm.export_buffer(memoryview(bytes(16)))
        name, _ = shm.unpack_descriptor(out.descriptor)
        try:
            with pytest.raises(TransportError, match="claims"):
                shm.manager().attach(name, 1 << 20)
        finally:
            out.abort()


class TestWriteNotMap:
    """The facts the staging cost rests on (docs/WIRE.md, BUF_SHM)."""

    def test_sender_never_maps_the_segment(self, open_fds):
        out = shm.export_buffer(memoryview(bytes(1 << 20)))
        try:
            maps = pathlib.Path("/proc/self/maps").read_text()
            assert shm.SHM_NAME_PREFIX not in maps
            fds_staged = open_fds()
        finally:
            out.abort()
        assert open_fds() == fds_staged, "a staged segment holds no fd"

    def test_source_has_one_way_to_make_a_segment(self):
        src = pathlib.Path(repro.__file__).parent
        for path in src.rglob("*.py"):
            text = path.read_text()
            assert "shared_memory" not in text, path
            assert "resource_tracker" not in text, path

    def test_mp_page_round_trip_spawns_no_resource_tracker(self, tmp_path):
        # In a fresh interpreter: the tracker is per process and any
        # earlier test in this one could have started it.
        script = textwrap.dedent("""
            import repro as oopp
            from multiprocessing import resource_tracker
            from repro.storage.page import Page

            class Store:
                def put(self, page):
                    self.page = page
                def get(self):
                    return self.page

            with oopp.Cluster(n_machines=1, backend="mp",
                              call_timeout_s=60.0) as cluster:
                store = cluster.on(0).new(Store)
                page = Page(2 << 20, bytes(range(256)) * (2 << 12))
                store.put(page)
                assert store.get().to_bytes() == page.to_bytes()
                moved = cluster.metrics()["driver"]["shm"]
                assert moved["bytes_copied"] >= 2 << 20, moved
            print("tracker pid:", resource_tracker._resource_tracker._pid)
        """)
        env = dict(os.environ, PYTHONPATH=str(
            pathlib.Path(repro.__file__).parents[1]),
            OOPP_STORAGE_DIR=str(tmp_path))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert "tracker pid: None" in done.stdout


class TestShmFull:
    """A full /dev/shm is a typed error on the caller (it used to be a
    SIGBUS in the copy), with nothing left behind."""

    def test_export_raises_and_leaves_nothing(self, shm_full, open_fds):
        before, fds = shm.host_shm_names(), open_fds()
        with pytest.raises(TransportError, match=r"4096 B.*No space"):
            shm.export_buffer(memoryview(bytes(4096)))
        assert shm.host_shm_names() == before
        assert open_fds() == fds

    @pytest.mark.parametrize("n", [1, 4095, 4096])
    def test_short_write_is_continued(self, short_write, n):
        short_write.n = n
        payload = os.urandom(8192)
        out = shm.export_buffer(memoryview(payload))
        out.commit()
        name, size = shm.unpack_descriptor(out.descriptor)
        try:
            assert bytes(shm.manager().attach(name, size)) == payload
        finally:
            shm.manager().release(name)
        assert short_write.n is None, "the short write happened"

    def test_create_continues_across_part_boundaries(self, short_write):
        short_write.n = 5
        parts = [b"abc", bytearray(b"defg"), memoryview(b"hij"), b""]
        seg = shm.Segment.create("oopp-test-parts", parts)
        try:
            assert seg.size == 10
            view = seg.buf
            assert bytes(view) == b"abcdefghij"
            view.release()
        finally:
            seg.unlink()
            seg.close()

    def wire_pair(self):
        from repro.transport.socket_channel import WireOptions
        from .test_wire_fastpath import make_pair

        return make_pair(client_options=WireOptions(
            shm_enabled=True, shm_threshold=1 << 12))

    def test_channel_stays_usable(self, shm_full, open_fds, monkeypatch):
        import numpy as np

        from repro.transport.message import Request

        def put(i, value):
            return Request(request_id=i, object_id=1, method="put",
                           args=(value,))

        client, server, listener = self.wire_pair()
        try:
            before, fds = shm.host_shm_names(), open_fds()
            big = np.arange(1 << 12, dtype=np.float64)
            with pytest.raises(TransportError, match="No space"):
                client.send(put(1, big))
            with pytest.raises(TransportError, match="No space"):
                client.send_batch([put(2, 1), put(3, big)])
            assert shm.host_shm_names() == before and open_fds() == fds
            monkeypatch.undo()  # space again
            client.send(put(4, big))
            msg = server.recv(timeout=5)
            assert msg.request_id == 4 and np.array_equal(msg.args[0], big)
            del msg
        finally:
            for chan in (client, server, listener):
                chan.close()

    def test_reply_that_cannot_be_staged_answers_with_the_error(
            self, shm_full):
        # The call ran and its caller waits: an unstageable reply must
        # not be dropped (nor latch the reply path shut), it goes out as
        # the error.  Same for a value that cannot be pickled.
        import threading

        import numpy as np

        from repro.errors import SerializationError
        from repro.transport.message import ErrorResponse, Response

        client, server, listener = self.wire_pair()
        try:
            client.send(Response(request_id=7, value=np.zeros(1 << 12)))
            client.send_batch([Response(request_id=8, value=1),
                               Response(request_id=9,
                                        value=threading.Lock())])
            full, fine, unpicklable = (server.recv(timeout=5)
                                       for _ in range(3))
            assert isinstance(full, ErrorResponse) and full.request_id == 7
            assert isinstance(full.exception, TransportError)
            assert "No space" in full.message
            assert fine.value == 1
            assert unpicklable.request_id == 9
            assert isinstance(unpicklable.exception, SerializationError)
        finally:
            for chan in (client, server, listener):
                chan.close()

    def test_later_buffer_failing_reclaims_the_earlier_ones(
            self, monkeypatch):
        import numpy as np

        from repro.transport.message import Request

        real = shm.export_buffer
        staged = []

        def second_one_fails(view):
            if staged:
                raise TransportError("cannot stage: No space left on device")
            staged.append(real(view))
            return staged[0]

        monkeypatch.setattr(shm, "export_buffer", second_one_fails)
        client, server, listener = self.wire_pair()
        try:
            pair = (np.zeros(1 << 12), np.ones(1 << 12))
            with pytest.raises(TransportError, match="No space"):
                client.send(Request(request_id=1, object_id=1,
                                    method="put", args=pair))
            assert staged and staged[0].name not in shm.host_shm_names()
        finally:
            for chan in (client, server, listener):
                chan.close()


class TestRefcounting:
    def make_segment(self, n=256):
        out = shm.export_buffer(memoryview(bytes(n)))
        out.commit()
        return shm.unpack_descriptor(out.descriptor)

    def test_release_at_zero_unlinks(self):
        name, size = self.make_segment()
        shm.manager().attach(name, size)
        assert name in shm.host_shm_names()
        shm.manager().release(name)
        assert name not in shm.host_shm_names()

    def test_addref_keeps_segment_alive(self):
        mgr = shm.manager()
        name, size = self.make_segment()
        mgr.attach(name, size)
        assert mgr.addref(name)
        mgr.release(name)
        assert name in shm.host_shm_names(), "one ref still held"
        mgr.release(name)
        assert name not in shm.host_shm_names()

    def test_double_attach_is_one_mapping_two_refs(self):
        mgr = shm.manager()
        name, size = self.make_segment()
        v1 = mgr.attach(name, size)
        v2 = mgr.attach(name, size)
        assert v1 is v2
        mgr.release(name)
        assert name in shm.host_shm_names()
        mgr.release(name)
        assert name not in shm.host_shm_names()

    def test_addref_after_release_fails(self):
        mgr = shm.manager()
        name, size = self.make_segment()
        mgr.attach(name, size)
        mgr.release(name)
        assert not mgr.addref(name)

    def test_adopt_ties_lifetime_to_owner(self):
        mgr = shm.manager()
        name, size = self.make_segment()
        view = mgr.attach(name, size)

        class Owner:
            pass

        owner = Owner()
        assert mgr.adopt(owner, view)
        mgr.release(name)  # the message's reference goes away...
        assert name in shm.host_shm_names()
        del owner          # ...and the adopter's with its GC
        gc.collect()
        assert name not in shm.host_shm_names()

    def test_adopt_foreign_view_is_noop(self):
        mgr = shm.manager()
        assert not mgr.adopt(object(), memoryview(b"plain bytes"))

    def test_consumer_view_survives_unlink(self, open_fds):
        # POSIX semantics: memory stays valid after unlink while mapped.
        mgr = shm.manager()
        fds = open_fds()
        name, size = self.make_segment()
        view = mgr.attach(name, size)
        alias = memoryview(view)  # a numpy-style alias pinning the mapping
        mgr.release(name)
        assert name not in shm.host_shm_names()
        assert mgr.stats()["zombie_mappings"] == 1
        assert bytes(alias[:8]) == bytes(8)  # still readable
        del alias, view
        gc.collect()
        mgr._sweep_zombies()
        assert mgr.stats()["zombie_mappings"] == 0
        assert open_fds() == fds, "the zombie's fd (and its map's) closed"

    def test_stats_track_copies(self):
        mgr = shm.manager()
        before = mgr.stats()["bytes_copied"]
        out = shm.export_buffer(memoryview(bytes(1000)))
        out.abort()
        assert mgr.stats()["bytes_copied"] == before + 1000
