"""Race detector and checker: conflict pairing, classification, backends."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

import repro as oopp
from repro.check.checker import Checker, make_checker
from repro.check.detector import (
    IMPLICIT_READS,
    KERNEL_OID,
    Access,
    RaceDetector,
    is_read,
    readonly,
)
from repro.check.examples import SharedCounter, racy_increments
from repro.config import CheckConfig, Config

pytestmark = pytest.mark.check


class Victim:
    @readonly
    def peek(self):
        return 0

    def poke(self):
        pass


def mk_access(oid=1, method="poke", write=True, clock=None, component=1,
              machine=0, caller=-1, request_id=1):
    return Access(object_id=oid, method=method, is_write=write,
                  clock=clock or {component: 1}, component=component,
                  machine=machine, caller=caller, request_id=request_id)


class TestClassification:
    def test_readonly_decorator_marks_read(self):
        assert is_read(Victim(), "peek")
        assert Victim.peek.__oopp_readonly__ is True

    def test_undeclared_method_is_write(self):
        assert not is_read(Victim(), "poke")

    def test_implicit_reads(self):
        v = Victim()
        for method in IMPLICIT_READS:
            assert is_read(v, method)

    def test_readonly_exported_at_package_root(self):
        assert oopp.readonly is readonly


class TestDetector:
    def test_concurrent_writes_reported(self):
        d = RaceDetector()
        d.record(Victim(), mk_access(component=1, clock={1: 1}))
        d.record(Victim(), mk_access(component=2, clock={2: 1}))
        (report,) = d.reports()
        assert report.kind == "write-write"
        assert report.cls == "Victim"

    def test_ordered_writes_not_reported(self):
        d = RaceDetector()
        d.record(Victim(), mk_access(component=1, clock={1: 1}))
        d.record(Victim(), mk_access(component=2, clock={1: 1, 2: 1}))
        assert d.reports() == []

    def test_concurrent_reads_not_reported(self):
        d = RaceDetector()
        d.record(Victim(), mk_access(method="peek", write=False,
                                     component=1, clock={1: 1}))
        d.record(Victim(), mk_access(method="peek", write=False,
                                     component=2, clock={2: 1}))
        assert d.reports() == []

    def test_read_write_reported(self):
        d = RaceDetector()
        d.record(Victim(), mk_access(method="peek", write=False,
                                     component=1, clock={1: 1}))
        d.record(Victim(), mk_access(component=2, clock={2: 1}))
        (report,) = d.reports()
        assert report.kind == "read-write"

    def test_kernel_object_never_recorded(self):
        d = RaceDetector()
        d.record(Victim(), mk_access(oid=KERNEL_OID, component=1,
                                     clock={1: 1}))
        d.record(Victim(), mk_access(oid=KERNEL_OID, component=2,
                                     clock={2: 1}))
        assert d.reports() == []

    def test_internal_methods_never_recorded(self):
        d = RaceDetector()
        d.record(Victim(), mk_access(method="take_spans", component=1,
                                     clock={1: 1}))
        d.record(Victim(), mk_access(method="take_spans", component=2,
                                     clock={2: 1}))
        assert d.reports() == []

    def test_distinct_objects_never_pair(self):
        d = RaceDetector()
        d.record(Victim(), mk_access(oid=1, component=1, clock={1: 1}))
        d.record(Victim(), mk_access(oid=2, component=2, clock={2: 1}))
        assert d.reports() == []

    def test_same_oid_on_different_machines_never_pairs(self):
        # oids are per-machine: oid 1 on m0 and oid 1 on m1 are
        # different objects even through one shared detector.
        d = RaceDetector()
        d.record(Victim(), mk_access(machine=0, component=1, clock={1: 1}))
        d.record(Victim(), mk_access(machine=1, component=2, clock={2: 1}))
        assert d.reports() == []

    def test_duplicate_pair_reported_once(self):
        d = RaceDetector(max_accesses_per_object=4)
        a = mk_access(component=1, clock={1: 1})
        b = mk_access(component=2, clock={2: 1})
        d.record(Victim(), a)
        d.record(Victim(), b)
        d.record(Victim(), b)  # re-recorded (e.g. a duplicated send)
        assert len(d.reports()) == 1

    def test_history_bounded_fifo(self):
        d = RaceDetector(max_accesses_per_object=1)
        d.record(Victim(), mk_access(component=1, clock={1: 1}))
        # evicts component 1's access, then records component 3
        d.record(Victim(), mk_access(component=2, clock={1: 1, 2: 1}))
        d.record(Victim(), mk_access(component=3, clock={3: 1}))
        # 3 is concurrent with both, but only 2 was still in history
        assert len(d.reports()) == 1

    def test_report_cap_counts_dropped(self):
        d = RaceDetector(max_reports=1)
        d.record(Victim(), mk_access(component=1, clock={1: 1}))
        d.record(Victim(), mk_access(component=2, clock={2: 1}))
        d.record(Victim(), mk_access(component=3, clock={3: 1}))
        assert len(d.reports()) == 1
        assert d.dropped >= 1

    def test_forget_clears_history(self):
        d = RaceDetector()
        d.record(Victim(), mk_access(component=1, clock={1: 1}))
        d.forget(0, 1)
        d.record(Victim(), mk_access(component=2, clock={2: 1}))
        assert d.reports() == []

    def test_take_reports_drains_dicts(self):
        d = RaceDetector()
        d.record(Victim(), mk_access(component=1, clock={1: 1}))
        d.record(Victim(), mk_access(component=2, clock={2: 1}))
        (report,) = d.take_reports()
        assert report["kind"] == "write-write"
        assert report["class"] == "Victim"
        assert report["machine"] == 0
        assert report["first"]["method"] == "poke"
        assert d.take_reports() == []


def fake_request(clock=None, oid=1, method="poke", caller=-1, request_id=1):
    return SimpleNamespace(clock=clock, object_id=oid, method=method,
                           caller=caller, request_id=request_id)


class TestChecker:
    def test_pipelined_sends_record_concurrent_executions(self):
        # two requests sent without consuming the first reply: their
        # executions must pair as a race.
        driver = Checker(node=-1)
        server = Checker(node=0)
        for request_id in (1, 2):
            req = fake_request(clock=driver.on_send(),
                               request_id=request_id)
            task = server.begin_execution(req)
            with server.scope(task):
                server.record(req, Victim(), machine=0)
            server.end_execution(task)
        assert len(server.reports()) == 1

    def test_consumed_reply_orders_executions(self):
        # send → execute → consume reply → send again: the reply edge
        # orders the two executions, so no race.
        driver = Checker(node=-1)
        server = Checker(node=0)
        for request_id in (1, 2):
            req = fake_request(clock=driver.on_send(),
                               request_id=request_id)
            task = server.begin_execution(req)
            with server.scope(task):
                server.record(req, Victim(), machine=0)
            driver.on_consume(server.end_execution(task))
        assert server.reports() == []

    def test_on_consume_is_idempotent(self):
        driver = Checker(node=-1)
        snap = {99: 5}
        driver.on_consume(snap)
        driver.on_consume(snap)
        driver.on_consume(None)
        assert driver.on_send()[99] == 5

    def test_make_checker_off_by_default(self):
        assert make_checker(Config(n_machines=2), node=-1) is None
        assert make_checker(Config(n_machines=2, check=CheckConfig()),
                            node=-1) is None

    def test_make_checker_on_with_race_detect(self):
        config = Config(n_machines=2, check=CheckConfig(
            race_detect=True, max_accesses_per_object=8, max_reports=9))
        checker = make_checker(config, node=3)
        assert checker is not None
        assert checker.node == 3
        assert checker.detector.max_accesses_per_object == 8
        assert checker.detector.max_reports == 9


RACE_DETECT = {"check": CheckConfig(race_detect=True)}


class TestBackends:
    """The detector wired through real clusters, end to end."""

    @pytest.mark.parametrize("backend", ["sim", "mp"])
    def test_racy_program_flagged(self, backend, tmp_path):
        kwargs = {"call_timeout_s": 60.0} if backend == "mp" else {}
        with oopp.Cluster(n_machines=3, backend=backend,
                          storage_root=str(tmp_path / "r"),
                          **RACE_DETECT, **kwargs) as cluster:
            racy_increments(cluster)
            reports = cluster.race_reports()
        assert reports, "pipelined get-then-set bumps must be flagged"
        assert all(r["class"] == "SharedCounter" for r in reports)
        assert any(r["kind"] == "write-write" for r in reports)

    @pytest.mark.parametrize("backend", [
        "inline", "sim", "mp", pytest.param("tcp", marks=pytest.mark.tcp)])
    def test_consuming_a_reply_orders_the_caller_after_it(self, backend,
                                                          tmp_path):
        # One issue routine on every backend: the request ships the
        # caller's clock, the reply brings the execution's back, and
        # result() merges it — so the caller then dominates the reply.
        from repro.check.vclock import AFTER, EQUAL, compare
        from repro.runtime.proxy import ref_of

        with oopp.Cluster(n_machines=2, backend=backend, call_timeout_s=60.0,
                          storage_root=str(tmp_path / "r"),
                          **RACE_DETECT) as cluster:
            counter = cluster.on(1).new(SharedCounter)
            fabric = cluster.fabric
            future = fabric.call_async(ref_of(counter), "get", (), {})
            future.result(60.0)
            reply_clock = future._check_clock
            caller_clock = fabric.checker._root.snapshot()
        assert reply_clock, "the reply carries the execution's clock"
        assert compare(caller_clock, reply_clock) in (AFTER, EQUAL)

    def test_inline_backend_is_genuinely_race_free(self, tmp_path):
        # inline executes calls synchronously and eagerly: every reply
        # is merged before the next send, so nothing is concurrent.
        with oopp.Cluster(n_machines=3, backend="inline",
                          storage_root=str(tmp_path / "r"),
                          **RACE_DETECT) as cluster:
            racy_increments(cluster)
            assert cluster.race_reports() == []

    def test_sequential_calls_not_flagged(self, tmp_path):
        with oopp.Cluster(n_machines=3, backend="sim",
                          storage_root=str(tmp_path / "r"),
                          **RACE_DETECT) as cluster:
            counter = cluster.on(0).new(SharedCounter)
            counter.set(1)
            counter.set(2)
            assert counter.get() == 2
            assert cluster.race_reports() == []

    def test_race_reports_drain(self, tmp_path):
        with oopp.Cluster(n_machines=3, backend="sim",
                          storage_root=str(tmp_path / "r"),
                          **RACE_DETECT) as cluster:
            racy_increments(cluster)
            assert cluster.race_reports()
            assert cluster.race_reports() == []

    def test_no_checker_without_config(self, sim_cluster):
        assert sim_cluster.fabric.checker is None
        assert sim_cluster.race_reports() == []


class TestRaceEventsExport:
    def test_reports_become_chrome_instants(self):
        from repro.obs.export import race_events

        events = race_events([{
            "machine": 2, "object_id": 1, "class": "SharedCounter",
            "kind": "write-write",
            "first": {"method": "set"}, "second": {"method": "set"},
        }])
        (ev,) = events
        assert ev["ph"] == "i"
        assert ev["cat"] == "race"
        assert ev["pid"] == 3
        assert "SharedCounter#1" in ev["name"]
