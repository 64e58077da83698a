"""Cross-host migration on tcp: state, publications and shm re-attach.

Two loopback daemons (separate OS processes) stand in for two boxes.
After an object migrates from one daemon's machine to the other's, the
wire-locality layer must re-validate zero-copy resources against the
*new* host's fingerprint: published arguments still attach, large
payloads still round-trip, and a daemon faked to be "foreign" ships
inline payloads instead of descriptors — exactly as for a freshly
created object there.
"""

from __future__ import annotations

import pytest

import repro as oopp

pytestmark = pytest.mark.tcp


@pytest.fixture
def two_host_cluster(tmp_path):
    with oopp.Cluster(hosts=["localhost/2", "localhost/2"],
                      call_timeout_s=60.0,
                      storage_root=str(tmp_path / "root")) as cluster:
        yield cluster


class Keeper:
    def __init__(self, tag):
        self.tag = tag
        self.seen = 0

    def measure(self, blob):
        self.seen += 1
        return (self.tag, len(blob))

    def echo(self, blob):
        return bytes(blob)

    def hits(self):
        return self.seen


class TestCrossHostMigration:
    def test_state_survives_the_host_boundary(self, two_host_cluster):
        p = two_host_cluster.on(0).new(Keeper, "roam")  # host A
        p.measure(b"x" * 10)
        two_host_cluster.migrate(p, 3)                  # host B
        assert oopp.ref_of(p).machine == 3
        assert two_host_cluster.on(3).host == "localhost"
        assert p.measure(b"y" * 5) == ("roam", 5)
        assert p.hits() == 2

    def test_publication_reattaches_on_new_host(self, two_host_cluster):
        payload = list(range(50_000))
        handle = two_host_cluster.publish(payload)
        try:
            p = two_host_cluster.on(0).new(Keeper, "pub")
            assert p.measure(handle) == ("pub", len(payload))
            two_host_cluster.migrate(p, 2)  # across the daemon boundary
            # the descriptor must attach on the destination daemon too
            assert p.measure(handle) == ("pub", len(payload))
        finally:
            handle.unpublish()

    def test_large_payload_roundtrip_after_migration(self, two_host_cluster):
        p = two_host_cluster.on(1).new(Keeper, "shm")
        blob = bytes(range(256)) * 4096  # 1 MiB: over any shm threshold
        assert p.echo(blob) == blob
        two_host_cluster.migrate(p, 3)
        assert p.echo(blob) == blob

    def test_stale_proxy_hops_across_daemons(self, two_host_cluster):
        p = two_host_cluster.on(0).new(Keeper, "hop")
        stale = oopp.Proxy(oopp.ref_of(p), two_host_cluster.fabric)
        two_host_cluster.migrate(p, 3)
        assert stale.measure(b"z") == ("hop", 1)
        assert oopp.ref_of(stale).machine == 3

    def test_foreign_fingerprint_downgrades_after_move(self, two_host_cluster):
        """Migrating toward a machine whose host reads as foreign must
        fall back to inline payloads — same downgrade as at creation."""
        from repro.util.hostid import host_fingerprint

        fabric = two_host_cluster.fabric
        p = two_host_cluster.on(0).new(Keeper, "foreign")
        two_host_cluster.migrate(p, 3)
        fabric._client.fingerprints[3] = "f" * 16  # pretend host B is remote
        try:
            options = fabric._client.options_for(3)
            assert options.pub_descriptors is False
            assert options.shm_enabled is False
            # inline payloads still reach the migrated object
            assert p.measure(b"q" * 3) == ("foreign", 3)
        finally:
            fabric._client.fingerprints[3] = host_fingerprint()
