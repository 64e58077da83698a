"""Host failure on the tcp backend: a killed daemon surfaces as
MachineDownError for every machine it hosted — discovered by the
heartbeat, not by a hung call — and idempotent calls recover after the
host restarts."""

from __future__ import annotations

import time

import pytest

import repro as oopp
from repro.check.examples import SharedCounter
from repro.errors import MachineDownError

pytestmark = [pytest.mark.tcp, pytest.mark.chaos]


def wait_for(predicate, timeout, what):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError(f"timed out waiting for {what}")
        time.sleep(0.02)


class TestHostDeath:
    def test_kill_mid_call_raises_machine_down(self, two_host_cluster):
        counter = two_host_cluster.on(2).new(SharedCounter)
        assert counter.add(1) == 1
        two_host_cluster.fabric.kill_host(1, hard=True)
        with pytest.raises(MachineDownError):
            counter.add(1)

    def test_heartbeat_discovers_a_quiet_death(self, two_host_cluster):
        """SIGKILL with no declaration: only the heartbeat can notice.
        The bound is heartbeat_misses * heartbeat_interval_s plus one
        poll tick, with slack for a loaded CI box."""
        fabric = two_host_cluster.fabric
        topo = two_host_cluster.config.topology
        budget = (topo.heartbeat_interval_s * (topo.heartbeat_misses + 2)
                  + 2.0)
        t0 = time.monotonic()
        fabric.kill_host(1, hard=True, quiet=True)
        wait_for(lambda: fabric.host_down(1), budget,
                 "heartbeat to declare host 1 down")
        assert time.monotonic() - t0 <= budget

    def test_every_machine_of_the_host_goes_down(self, two_host_cluster):
        fabric = two_host_cluster.fabric
        fabric.kill_host(1, hard=True)
        for machine in (2, 3):
            assert fabric.machine_down(machine)
            with pytest.raises(MachineDownError, match="down"):
                fabric.ping(machine)

    def test_surviving_host_is_unaffected(self, two_host_cluster):
        counter = two_host_cluster.on(0).new(SharedCounter)
        two_host_cluster.fabric.kill_host(1, hard=True)
        assert counter.add(1) == 1            # daemon A still serves
        assert two_host_cluster.on(1).ping() == 1

    def test_down_errors_name_the_machine(self, two_host_cluster):
        fabric = two_host_cluster.fabric
        fabric.kill_host(1, hard=True)
        try:
            fabric.ping(3)
        except MachineDownError as exc:
            assert exc.machine == 3
        else:
            pytest.fail("expected MachineDownError")


class TestRecovery:
    def test_idempotent_calls_recover_after_restart(self, two_host_cluster):
        fabric = two_host_cluster.fabric
        fabric.kill_host(1, hard=True)
        with pytest.raises(MachineDownError):
            fabric.ping(2)
        fabric.restart_host(1)
        # Fresh daemon, fresh object tables — but the machines answer
        # idempotent traffic again, which is what retry needs.
        assert fabric.ping(2) == 2
        assert fabric.ping(3) == 3
        counter = two_host_cluster.on(2).new(SharedCounter)
        assert counter.add(4) == 4

    def test_restart_preserves_the_surviving_hosts_objects(
            self, two_host_cluster):
        counter = two_host_cluster.on(0).new(SharedCounter)
        counter.add(7)
        two_host_cluster.fabric.kill_host(1, hard=True)
        two_host_cluster.fabric.restart_host(1)
        assert counter.get() == 7

    def test_cross_host_calls_work_after_restart(self, two_host_cluster):
        from repro.check.examples import Bumper

        fabric = two_host_cluster.fabric
        fabric.kill_host(1, hard=True)
        fabric.restart_host(1)
        counter = two_host_cluster.on(0).new(SharedCounter)
        bumper = two_host_cluster.on(3).new(Bumper)
        assert bumper.bump(counter) == 1      # restarted B -> A


class TestFaultInjectionRidesAlong:
    def test_dropped_ping_retried_to_success(self, tmp_path):
        """The chaos layer needs no tcp-specific code: FaultPlan wraps
        the driver's channels exactly as on mp, so a dropped idempotent
        call burns its deadline and succeeds on the retry."""
        plan = oopp.FaultPlan(seed=5, rules=[
            oopp.FaultRule(action="drop", direction="send",
                           kinds=("req",), methods=("ping",), nth=1)])
        with oopp.Cluster(n_machines=2, backend="tcp",
                          call_timeout_s=1.0, fault_plan=plan,
                          retry=oopp.RetryConfig(retries=2, backoff_s=0.05),
                          storage_root=str(tmp_path / "root")) as cluster:
            t0 = time.monotonic()
            assert cluster.fabric.ping(1) == 1
            assert time.monotonic() - t0 >= 1.0  # one burnt deadline
            assert cluster.fabric.ping(1) == 1   # rule exhausted
