"""Every transport test runs under the ``/dev/shm`` leak gate; the
fault fixtures make segment writes fail the way a full tmpfs does."""

from __future__ import annotations

import errno
import os

import pytest


@pytest.fixture(autouse=True)
def _shm_leak_gate(shm_leak_gate):
    yield


@pytest.fixture
def open_fds():
    """Callable: how many fds this process holds right now."""
    return lambda: len(os.listdir("/proc/self/fd"))


@pytest.fixture
def shm_full(monkeypatch):
    """Every write into a segment fails the way a full tmpfs does."""
    def enospc(fd, buffers):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(os, "writev", enospc)


@pytest.fixture
def short_write(monkeypatch):
    """The first write into a segment moves only ``short_write.n`` bytes
    (a signal, a nearly full tmpfs); later ones are whole."""
    real = os.writev

    def writev(fd, buffers):
        if writev.n is not None:
            n, writev.n = writev.n, None
            return os.write(fd, b"".join(map(bytes, buffers))[:n])
        return real(fd, buffers)

    writev.n = 1
    monkeypatch.setattr(os, "writev", writev)
    return writev
