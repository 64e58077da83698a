"""Acceptance: a full ``/dev/shm`` fails the one call, not the machine.

Staging a bulk buffer used to be a memcpy into a fresh mapping; with no
tmpfs page left the fault in that copy was a ``SIGBUS`` and the process
died.  Now the segment is filled with ``write(2)``: ``ENOSPC`` becomes a
typed error on the caller, the half-written segment is reclaimed, and
the same connection carries the next call (docs/FAILURES.md).
"""

from __future__ import annotations

import errno
import os

import pytest

import repro as oopp
from repro.errors import MachineDownError, TransportError
from repro.storage.page import Page

PAGE_BYTES = 2 << 20  # above the default shm threshold


def _enospc(fd, buffers):
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


class Store:
    def put(self, page):
        self.page = page
        return os.getpid()

    def get(self):
        return self.page

    def shm_is_full(self, full):
        """Make (or stop making) every segment write in *this machine's*
        process fail the way a full tmpfs does."""
        if full:
            Store._writev, os.writev = os.writev, _enospc
        else:
            os.writev = Store._writev
        return os.getpid()


@pytest.fixture
def store_and_page(tmp_path):
    with oopp.Cluster(n_machines=1, backend="mp", call_timeout_s=30.0,
                      storage_root=str(tmp_path / "r")) as cluster:
        page = Page(PAGE_BYTES, bytes(range(256)) * (PAGE_BYTES // 256))
        yield cluster.on(0).new(Store), page


def test_reply_that_cannot_be_staged_is_a_typed_error(store_and_page):
    store, page = store_and_page
    pid = store.put(page)
    store.shm_is_full(True)
    with pytest.raises(TransportError, match=f"{PAGE_BYTES} B.*No space"):
        store.get()
    # Same process, same connection, next call.
    assert store.shm_is_full(False) == pid
    assert store.get().to_bytes() == page.to_bytes()


def test_request_that_cannot_be_staged_is_a_typed_error(
        store_and_page, monkeypatch):
    store, page = store_and_page
    pid = store.put(page)
    monkeypatch.setattr(os, "writev", _enospc)
    # The send failed before a byte left; the fabric reports it the way
    # it reports any lost connection, cause attached, and re-dials.
    with pytest.raises(MachineDownError, match="No space"):
        store.put(page)
    monkeypatch.undo()
    assert store.put(page) == pid
    assert store.get().to_bytes() == page.to_bytes()
