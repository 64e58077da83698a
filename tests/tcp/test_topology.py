"""Host-aware addressing: ``Cluster(hosts=...)``, ``on("host/k")``,
``MachineHandle.host``, and the topology config surface."""

from __future__ import annotations


import pytest

import repro as oopp
from repro.config import Config, TopologyConfig
from repro.errors import ConfigError, NoSuchMachineError

pytestmark = pytest.mark.tcp


class TestHostSpecParsing:
    def test_bare_addr(self):
        spec = oopp.HostSpec.parse("hostA")
        assert (spec.addr, spec.machines) == ("hostA", 1)

    def test_addr_with_count(self):
        spec = oopp.HostSpec.parse("hostA/3")
        assert (spec.addr, spec.machines) == ("hostA", 3)

    def test_existing_spec_passes_through(self):
        spec = oopp.HostSpec("hostB", machines=2)
        assert oopp.HostSpec.parse(spec) is spec

    def test_resolved_hosts_defaults_to_one_local_host(self):
        assert TopologyConfig().resolved_hosts(4) == [
            oopp.HostSpec("localhost", machines=4)]

    def test_resolved_hosts_must_cover_n_machines(self):
        topo = TopologyConfig(hosts=[oopp.HostSpec("a", machines=2)])
        with pytest.raises(ConfigError):
            topo.resolved_hosts(5)


class TestClusterHostsKwarg:
    def test_hosts_implies_tcp_and_machine_total(self, tmp_path):
        with oopp.Cluster(hosts=["localhost/2", "localhost"],
                          storage_root=str(tmp_path / "root")) as cluster:
            assert cluster.config.backend == "tcp"
            assert cluster.n_machines == 3

    def test_explicit_backend_wins_over_hosts_default(self, tmp_path):
        with oopp.Cluster(hosts=["localhost/3"], backend="inline",
                          storage_root=str(tmp_path / "root")) as cluster:
            assert cluster.config.backend == "inline"
            assert cluster.n_machines == 3

    def test_n_machines_must_agree_with_hosts(self):
        with pytest.raises(ConfigError, match="disagrees"):
            oopp.Cluster(n_machines=5, hosts=["a/2", "b/2"])


class TestAddressing:
    def test_handles_report_their_host(self, two_host_cluster):
        assert [two_host_cluster.on(i).host for i in range(4)] == [
            "localhost"] * 4

    def test_on_accepts_host_strings(self, two_host_cluster):
        # Two topology entries share the addr, so "localhost/k" indexes
        # across both daemons' machines in placement order.
        assert [two_host_cluster.on(f"localhost/{k}").id
                for k in range(4)] == [0, 1, 2, 3]

    def test_local_alias_pools_local_hosts(self, two_host_cluster):
        # "127.0.0.1" isn't spelled in the topology but is local, so it
        # falls back to the pooled local machines.
        assert two_host_cluster.on("127.0.0.1/3").id == 3

    def test_unknown_host_is_rejected(self, two_host_cluster):
        with pytest.raises(NoSuchMachineError, match="not part of this"):
            two_host_cluster.on("hostZ/0")

    def test_out_of_range_index_is_rejected(self, two_host_cluster):
        with pytest.raises(NoSuchMachineError, match="out of range"):
            two_host_cluster.on("localhost/4")

    def test_single_host_backends_accept_local_strings(self, tmp_path):
        with oopp.Cluster(n_machines=3, backend="inline",
                          storage_root=str(tmp_path / "root")) as cluster:
            assert cluster.on("localhost/2").id == 2
            assert cluster.on(1).host == "localhost"
            with pytest.raises(NoSuchMachineError):
                cluster.on("hostZ/0")


class TestBackendRegistry:
    def test_all_four_backends_registered(self):
        assert set(oopp.available_backends()) >= {"inline", "mp", "sim",
                                                  "tcp"}

    def test_unknown_backend_error_lists_registered(self):
        with pytest.raises(ConfigError, match="registered backends"):
            Config(backend="carrier-pigeon").validate()

    def test_custom_backend_plugs_in(self):
        from repro.backends.registry import unregister_backend

        calls = []

        def factory(config):
            calls.append(config.backend)
            from repro.backends.inline import InlineFabric
            return InlineFabric(config)

        oopp.register_backend("custom-test", factory)
        try:
            with oopp.Cluster(n_machines=2,
                              backend="custom-test") as cluster:
                assert cluster.ping_all() == [0, 1]
            assert calls == ["custom-test"]
        finally:
            unregister_backend("custom-test")

    def test_duplicate_registration_is_refused(self):
        with pytest.raises(ConfigError, match="already registered"):
            oopp.register_backend("tcp", lambda cfg: None)


class TestPerHostMetrics:
    def test_metrics_carry_host_rollups(self, two_host_cluster):
        from repro.check.examples import SharedCounter

        counter = two_host_cluster.on(2).new(SharedCounter)
        counter.add(1)
        metrics = two_host_cluster.metrics()
        host_keys = [k for k in metrics if k.startswith("host ")]
        assert len(host_keys) == 2
        rollup = metrics["host 1 (localhost)"]
        assert rollup["machines"] == [2, 3]
        assert rollup["fingerprint"]
        assert isinstance(rollup["totals"], dict)
