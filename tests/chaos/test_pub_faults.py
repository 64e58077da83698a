"""Chaos × publication: BUF_PUB descriptors under drops, corruption and
a vanished publisher.

The invariants (see ``docs/FAILURES.md``): a lost or mangled descriptor
frame is indistinguishable from any lost request — the call provably
never executed, so idempotent methods retry to success; a descriptor
that outlives its payload (publisher unpublished or died before the
receiver attached) surfaces as a *retryable* error, never garbage; and
no scenario may leak ``/dev/shm`` segments.
"""

from __future__ import annotations

import pytest

import repro as oopp
from repro.errors import MachineDownError, PublicationError
from repro.transport.faults import FaultPlan, FaultRule


class Model:
    def __init__(self, blob: bytes) -> None:
        self.blob = blob


class Reader:
    """Idempotent consumer of a broadcast payload (retry-eligible)."""

    __oopp_idempotent__ = frozenset({"length"})

    def length(self, payload) -> int:
        return len(payload.blob)


BLOB = bytes(1 << 16)


class TestPubRequestFaults:
    def test_dropped_descriptor_request_retries(self, tmp_path):
        # The first request carrying a BUF_PUB descriptor vanishes; the
        # descriptor is just bytes in a frame, so the retry re-ships it
        # and the pinned payload is attached exactly once.
        plan = FaultPlan(seed=5, rules=[
            FaultRule(action="drop", direction="send", kinds=("pub",),
                      nth=1)])
        with oopp.Cluster(n_machines=2, backend="mp", call_timeout_s=1.0,
                          retry=oopp.RetryConfig(retries=3, backoff_s=0.05),
                          fault_plan=plan,
                          storage_root=str(tmp_path / "r")) as cluster:
            handle = cluster.publish(Model(BLOB))
            reader = cluster.new(Reader, machine=1)
            assert reader.length(handle) == len(BLOB)

    def test_corrupted_descriptor_request_retries(self, tmp_path):
        plan = FaultPlan(seed=9, rules=[
            FaultRule(action="corrupt", direction="send", kinds=("pub",),
                      nth=1)])
        with oopp.Cluster(n_machines=2, backend="mp", call_timeout_s=1.0,
                          retry=oopp.RetryConfig(retries=3, backoff_s=0.05),
                          fault_plan=plan,
                          storage_root=str(tmp_path / "r")) as cluster:
            handle = cluster.publish(Model(BLOB))
            reader = cluster.new(Reader, machine=1)
            assert reader.length(handle) == len(BLOB)

    def test_pub_rules_ignore_plain_requests(self, tmp_path):
        # A kinds=("pub",) rule must never fire on traffic that carries
        # no publication descriptor.
        plan = FaultPlan(seed=2, rules=[
            FaultRule(action="drop", direction="both", kinds=("pub",),
                      probability=1.0, max_fires=None)])
        with oopp.Cluster(n_machines=2, backend="mp", call_timeout_s=5.0,
                          fault_plan=plan,
                          storage_root=str(tmp_path / "r")) as cluster:
            reader = cluster.new(Reader, machine=1)
            assert reader.length(Model(b"abc")) == 3


class TestPublisherGone:
    def test_stale_handle_surfaces_retryable_error_mp(self, tmp_path):
        # The publisher unpins (or dies) before the receiver ever
        # attaches: the machine cannot decode the request, which must
        # surface as a retryable transport-class failure, not garbage.
        with oopp.Cluster(n_machines=2, backend="mp", call_timeout_s=2.0,
                          storage_root=str(tmp_path / "r")) as cluster:
            handle = cluster.publish(Model(BLOB))
            reader = cluster.new(Reader, machine=1)
            handle.unpublish()
            with pytest.raises((MachineDownError, PublicationError)):
                reader.length(handle)
            # The machine itself is fine: a fresh publication flows.
            fresh = cluster.publish(Model(BLOB))
            assert reader.length(fresh) == len(BLOB)

    def test_stale_handle_surfaces_publication_error_inline(self, tmp_path):
        with oopp.Cluster(n_machines=2, backend="inline",
                          storage_root=str(tmp_path / "r")) as cluster:
            handle = cluster.publish(Model(BLOB))
            reader = cluster.new(Reader, machine=1)
            handle.unpublish()
            with pytest.raises(PublicationError):
                reader.length(handle)

    def test_sim_corrupted_pub_request(self, tmp_path):
        # On the simulated wire a corrupted descriptor frame fails like
        # any corrupted request: SerializationError delivered to the
        # caller's future; the second member's broadcast still lands.
        plan = FaultPlan(seed=3, rules=[
            FaultRule(action="corrupt", direction="send", kinds=("pub",),
                      nth=1)])
        with oopp.Cluster(n_machines=3, backend="sim", fault_plan=plan,
                          storage_root=str(tmp_path / "r")) as cluster:
            handle = cluster.publish(Model(BLOB))
            readers = cluster.new_group(Reader, 3,
                                        machines=[1, 2, 1])
            futures = readers.futures("length", handle)
            outcomes = []
            for f in futures:
                try:
                    outcomes.append(f.result(5.0))
                except oopp.errors.SerializationError:
                    outcomes.append("corrupt")
            assert "corrupt" in outcomes
            assert len(BLOB) in outcomes
