"""Shared fixtures: isolated storage dirs and per-backend clusters."""

from __future__ import annotations

import gc
import os

import pytest

import repro as oopp


@pytest.fixture(autouse=True)
def isolated_storage(tmp_path, monkeypatch):
    """Point every device file and persistent store at the test's tmp dir."""
    monkeypatch.setenv("OOPP_STORAGE_DIR", str(tmp_path / "devstore"))
    yield tmp_path


@pytest.fixture
def shm_leak_gate():
    """``/dev/shm`` holds exactly the ``oopp-*`` names it held before
    the test.  Made autouse by the conftest of every directory whose
    tests move segments (transport, storage, chaos).

    The sender's exit sweep and the publisher's only run when a process
    exits, so they are emulated here first: a segment exported to a peer
    that was killed before attaching it is the sweep's to reclaim, not a
    leak.  The *receive* side gets no such help — a segment this process
    attached must be gone because its references were released."""
    from repro.transport import pub, shm

    before = set(shm.host_shm_names())
    yield
    pub.registry().shutdown()
    gc.collect()
    shm._reclaim_exported()
    after = set(shm.host_shm_names())
    assert after == before, (
        f"leaked {sorted(after - before)}, removed {sorted(before - after)}")


@pytest.fixture
def inline_cluster(tmp_path):
    with oopp.Cluster(n_machines=4, backend="inline",
                      storage_root=str(tmp_path / "root")) as cluster:
        yield cluster


def _check_seed_kwargs() -> dict:
    """Schedule-perturbation opt-in: ``OOPP_CHECK_SEED=<n> pytest`` runs
    every sim-backed test under that seeded same-instant event order
    (see ``docs/CHECKING.md``).  Tests that genuinely depend on the
    default order carry the ``ordered`` marker and are skipped."""
    seed = os.environ.get("OOPP_CHECK_SEED")
    if not seed:
        return {}
    return {"check": oopp.CheckConfig(schedule_seed=int(seed))}


@pytest.fixture
def sim_cluster(tmp_path):
    with oopp.Cluster(n_machines=4, backend="sim",
                      storage_root=str(tmp_path / "root"),
                      **_check_seed_kwargs()) as cluster:
        yield cluster


@pytest.fixture
def mp_cluster(tmp_path):
    with oopp.Cluster(n_machines=3, backend="mp", call_timeout_s=60.0,
                      storage_root=str(tmp_path / "root")) as cluster:
        yield cluster


@pytest.fixture(params=["inline", "mp", "sim"])
def any_cluster(request, tmp_path):
    """The same test body run against every backend."""
    kwargs = {"call_timeout_s": 60.0} if request.param == "mp" else {}
    if request.param == "sim":
        kwargs.update(_check_seed_kwargs())
    with oopp.Cluster(n_machines=3, backend=request.param,
                      storage_root=str(tmp_path / "root"),
                      **kwargs) as cluster:
        yield cluster


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: long-running integration tests")


def pytest_collection_modifyitems(config, items):
    if not os.environ.get("OOPP_CHECK_SEED"):
        return
    skip = pytest.mark.skip(
        reason="depends on the default same-instant event order "
               "(ordered marker) and OOPP_CHECK_SEED perturbs it")
    for item in items:
        if "ordered" in item.keywords:
            item.add_marker(skip)
