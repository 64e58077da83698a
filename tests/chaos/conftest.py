"""Every test under tests/chaos/ carries the ``chaos`` marker.

Run only the failure-mode suite with ``pytest -m chaos``, or exclude it
from a quick pass with ``pytest -m "not chaos"``.  Each one also runs
under the ``/dev/shm`` leak gate (``shm_leak_gate`` in the root conftest).
"""

from __future__ import annotations

import pathlib

import pytest

_CHAOS_DIR = pathlib.Path(__file__).parent


def pytest_collection_modifyitems(items):
    for item in items:
        if _CHAOS_DIR in pathlib.Path(str(item.fspath)).parents:
            item.add_marker(pytest.mark.chaos)


@pytest.fixture(autouse=True)
def _shm_leak_gate(shm_leak_gate):
    yield
