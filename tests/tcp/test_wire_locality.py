"""Host-locality on the wire: shm/pub descriptors never cross hosts.

Loopback daemons share the driver's host fingerprint, so zero-copy
stays on; a peer with a *different* fingerprint must get inline
payloads.  The cross-host cases are driven by faking fingerprints —
the descriptor-refusal backstop for a descriptor that slips through
anyway lives in the transport suites (test_shm/test_pub)."""

from __future__ import annotations

import dataclasses

import pytest

import repro as oopp
from repro.check.examples import SharedCounter
from repro.transport.socket_channel import WireOptions
from repro.util.hostid import host_fingerprint

pytestmark = pytest.mark.tcp


class Echo:
    @oopp.readonly
    def size(self, blob) -> int:
        return len(blob)

    @oopp.readonly
    def roundtrip(self, blob) -> bytes:
        return bytes(blob)


class TestSameHostKeepsZeroCopy:
    def test_driver_options_toward_loopback_daemon(self, tcp_cluster):
        options = tcp_cluster.fabric._client.options_for(0)
        base = WireOptions.from_config(tcp_cluster.config)
        assert options.shm_enabled == base.shm_enabled
        assert options.pub_descriptors is True

    def test_large_payloads_round_trip(self, two_host_cluster):
        echo = two_host_cluster.on(3).new(Echo)
        blob = bytes(range(256)) * 4096  # 1 MiB: over any shm threshold
        assert echo.size(blob) == len(blob)
        assert echo.roundtrip(blob) == blob

    def test_publication_descriptors_cross_codaemons(self, two_host_cluster):
        """Both daemons run on this box, so a published value still
        ships as a descriptor and attaches via shm on each daemon."""
        payload = list(range(50_000))
        handle = two_host_cluster.publish(payload)
        try:
            sizes = [two_host_cluster.on(m).new(Echo).size(handle)
                     for m in (0, 3)]
            assert sizes == [len(payload)] * 2
        finally:
            handle.unpublish()


class TestForeignHostDowngrades:
    def test_driver_downgrades_for_foreign_fingerprint(self, tcp_cluster):
        fabric = tcp_cluster.fabric
        fabric._client.fingerprints[1] = "f" * 16  # pretend m1 is on another box
        try:
            options = fabric._client.options_for(1)
            assert options.shm_enabled is False
            assert options.pub_descriptors is False
            # Other machines keep the local fast path.
            assert fabric._client.options_for(0).pub_descriptors is True
        finally:
            fabric._client.fingerprints[1] = host_fingerprint()

    def test_machine_server_downgrades_for_foreign_peer(self, tmp_path):
        from repro.backends.mp import MachineServer

        config = oopp.Config(n_machines=2, backend="mp")
        server = MachineServer(0, config)
        try:
            server.outbound.fingerprints[1] = "f" * 16
            foreign = server.outbound.options_for(1)
            assert foreign.shm_enabled is False
            assert foreign.pub_descriptors is False
            server.outbound.fingerprints[1] = host_fingerprint()
            local = server.outbound.options_for(1)
            assert local.pub_descriptors is True
        finally:
            server.kernel.stop_event.set()
            server.listener.close()

    def test_suppressed_publication_encodes_by_value(self):
        """The downgrade path: with descriptors suppressed the handle
        pickles to the published value itself, so a foreign host gets a
        plain payload it can always decode."""
        import pickle

        from repro.transport import pub

        value = {"k": list(range(100))}
        handle = pub.registry().publish(value, protocol=5, backing="local")
        try:
            with pub.suppress_descriptors():
                clone = pickle.loads(pickle.dumps(handle, protocol=5))
            assert clone == value
            assert not isinstance(clone, pub.Publication)
        finally:
            handle.unpublish()

    def test_wire_options_field_defaults_on(self):
        assert WireOptions().pub_descriptors is True
        off = dataclasses.replace(WireOptions(), pub_descriptors=False)
        assert off.pub_descriptors is False


class TestObservabilityRidesAlong:
    def test_trace_spans_cross_the_tcp_wire(self, tmp_path):
        with oopp.Cluster(n_machines=2, backend="tcp",
                          trace=True,
                          storage_root=str(tmp_path / "root")) as cluster:
            counter = cluster.on(1).new(SharedCounter)
            counter.add(1)
            spans = cluster.trace_spans()
        kinds = {(s.kind, s.machine) for s in spans}
        # Client spans recorded at the driver, server spans on the
        # daemon's machine — gathered over the wire via take_spans.
        assert ("client", -1) in kinds
        assert ("server", 1) in kinds

    def test_race_reports_cross_the_tcp_wire(self, tmp_path):
        with oopp.Cluster(n_machines=3, backend="tcp",
                          check=oopp.CheckConfig(race_detect=True),
                          storage_root=str(tmp_path / "root")) as cluster:
            from repro.check.examples import atomic_increments

            atomic_increments(cluster)
            reports = cluster.race_reports()
        assert reports, "pipelined adds must be flagged on tcp too"
        assert reports[0]["machine"] == 0
