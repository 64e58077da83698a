"""Property: whatever goes into a segment comes out of it, exactly.

Sizes straddle the page and the MiB boundary (a ``write`` that ends
mid-page, a mapping whose last page is partial); sources are every kind
of buffer the wire stages: readonly ``bytes``, ``bytearray``, numpy, a
view of an *attached* segment (the ``get`` direction: a page that
arrived through shm goes back out through shm), and the multi-part list
``publish`` hands to :meth:`Segment.create`.
"""

from __future__ import annotations

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.transport import shm

MIB = 1 << 20
SIZES = st.sampled_from([0, 1, 4095, 4096, 4097, MIB - 1, MIB, MIB + 1])
SEEDS = st.integers(0, 2**32 - 1)


def attach_exported(view: memoryview) -> tuple[str, memoryview]:
    """``export_buffer`` → descriptor → ``attach``, as the wire does."""
    mgr = shm.manager()
    copied = mgr.stats()["bytes_copied"]
    out = shm.export_buffer(view)
    out.commit()
    assert mgr.stats()["bytes_copied"] == copied + view.nbytes
    name, size = shm.unpack_descriptor(out.descriptor)
    assert size == view.nbytes
    return name, mgr.attach(name, size)


def check_attached(got: memoryview, payload: bytes) -> None:
    assert got.nbytes == len(payload) and bytes(got) == payload
    assert not got.readonly
    if payload:
        got[-1] = payload[-1] ^ 0xFF  # the receiver may write in place
        assert got[-1] == payload[-1] ^ 0xFF


def as_numpy(payload: bytes) -> memoryview:
    dtype = np.float64 if payload and len(payload) % 8 == 0 else np.uint8
    array = np.frombuffer(payload, dtype=dtype).copy()
    return memoryview(array).cast("B") if array.size else memoryview(array)


SOURCES = st.sampled_from([
    memoryview,                                   # bytes: a readonly view
    lambda payload: memoryview(bytearray(payload)),
    as_numpy,
])


class TestStagingRoundTrip:
    @given(SIZES, SEEDS, SOURCES)
    @settings(max_examples=60, deadline=None)
    def test_export_attach_is_identity(self, size, seed, source):
        payload = random.Random(seed).randbytes(size)
        before = shm.host_shm_names()
        name, got = attach_exported(source(payload))
        try:
            check_attached(got, payload)
        finally:
            del got
            shm.manager().release(name)
        assert shm.host_shm_names() == before

    @given(SIZES, SEEDS)
    @settings(max_examples=30, deadline=None)
    def test_attached_view_exports_again(self, size, seed):
        payload = random.Random(seed).randbytes(size)
        before = shm.host_shm_names()
        first, arrived = attach_exported(memoryview(payload))
        try:
            second, got = attach_exported(arrived)
            try:
                assert second != first
                check_attached(got, payload)
                assert bytes(arrived) == payload, "the source is untouched"
            finally:
                del got
                shm.manager().release(second)
        finally:
            del arrived
            shm.manager().release(first)
        assert shm.host_shm_names() == before

    @given(SIZES, SEEDS, st.lists(st.floats(0, 1), max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_parts_land_back_to_back(self, size, seed, cuts):
        payload = random.Random(seed).randbytes(size)
        edges = [0, *sorted(int(c * size) for c in cuts), size]
        kinds = (bytes, bytearray, memoryview, as_numpy)
        parts = [kinds[i % 4](payload[a:b])
                 for i, (a, b) in enumerate(zip(edges, edges[1:]))]
        before = shm.host_shm_names()
        name = f"{shm.SHM_NAME_PREFIX}test-parts-{seed:x}"
        shm.Segment.create(name, parts).close()
        got = shm.manager().attach(name, size)
        try:
            check_attached(got, payload)
        finally:
            del got
            shm.manager().release(name)
        assert shm.host_shm_names() == before
