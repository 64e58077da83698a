"""Every storage test runs under the ``/dev/shm`` leak gate."""

from __future__ import annotations

import pytest


@pytest.fixture(autouse=True)
def _shm_leak_gate(shm_leak_gate):
    yield
