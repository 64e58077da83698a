"""Cluster-level publication: broadcast semantics, auto-publish, the
memoized ``new_group`` fan-out, and cross-backend conformance.

The wire-level contract (payload crosses the socket at most once per
host) is asserted here for a small payload; the full-size version with
the >= 5x speedup gate lives in ``repro.bench.a06_publication``.
"""

from __future__ import annotations

import pytest

import repro as oopp
from repro.check.conformance import conformance
from repro.obs.metrics import counters


@pytest.fixture(autouse=True)
def no_shm_leaks(shm_leak_gate):
    yield


class Model:
    """A published read-only blob (custom class: by-value works too)."""

    def __init__(self, blob: bytes) -> None:
        self.blob = blob


class Checker:
    """Remote object summarizing whatever payload it is handed."""

    def digest(self, payload) -> tuple[int, int]:
        blob = payload.blob if isinstance(payload, Model) else payload
        return len(blob), sum(blob[:64])


class Keeper:
    """Remote object constructed with a payload (fan-out target)."""

    def __init__(self, tag, payload=b"") -> None:
        self.tag = tag
        self.payload = payload

    def describe(self) -> tuple:
        blob = getattr(self.payload, "blob", self.payload)
        return self.tag, len(blob)

    def stamp(self, extra) -> tuple:
        self.tag = (self.tag, extra)
        return self.tag


class CountingArg:
    """Counts how many times its state is pickled (memoization gauge)."""

    pickles = 0

    def __init__(self, blob: bytes) -> None:
        self.blob = blob

    def __getstate__(self):
        type(self).pickles += 1
        return {"blob": self.blob}

    def __setstate__(self, state):
        self.blob = state["blob"]


BLOB = bytes(range(256)) * 512  # 128 KiB


class TestExplicitPublish:
    def test_broadcast_handle(self, any_cluster):
        model = Model(BLOB)
        handle = any_cluster.publish(model)
        group = any_cluster.new_group(Checker, 3)
        results = group.invoke("digest", handle)
        assert results == [(len(BLOB), sum(BLOB[:64]))] * 3

    def test_broadcast_by_value(self, any_cluster):
        # The published *object* in the argument list substitutes too.
        model = Model(BLOB)
        any_cluster.publish(model)
        group = any_cluster.new_group(Checker, 3)
        assert group.invoke("digest", model) == \
            [(len(BLOB), sum(BLOB[:64]))] * 3

    def test_metrics_surface_pub_counters(self, inline_cluster):
        model = Model(BLOB)
        handle = inline_cluster.publish(model)
        group = inline_cluster.new_group(Checker, 4)
        group.invoke("digest", handle)
        m = inline_cluster.metrics()["driver"]["pub"]
        assert m["published"] >= 1
        assert m["pinned_bytes"] >= len(BLOB)
        assert m["attach_misses"] >= 1
        assert m["attach_misses"] + m.get("attach_hits", 0) >= 4

    def test_mp_payload_crosses_socket_once_per_host(self, tmp_path):
        # bytes pickle in-band, so without publication the broadcast
        # would push ~3x the payload through the socket.  Published, the
        # wire carries three ~100-byte descriptors.
        payload = Model(bytes(1 << 21))  # 2 MiB
        with oopp.Cluster(n_machines=3, backend="mp", call_timeout_s=60.0,
                          storage_root=str(tmp_path / "r")) as cluster:
            handle = cluster.publish(payload)
            group = cluster.new_group(Checker, 3)
            before = cluster.fabric.traffic()["bytes_out"]
            results = group.invoke("digest", handle)
            delta = cluster.fabric.traffic()["bytes_out"] - before
            assert results == [(1 << 21, 0)] * 3
            assert delta < (1 << 20), \
                f"broadcast pushed {delta} bytes through the socket"

    def test_unpublish_then_call_is_retryable_error(self, inline_cluster):
        model = Model(BLOB)
        handle = inline_cluster.publish(model)
        group = inline_cluster.new_group(Checker, 2)
        group.invoke("digest", handle)
        handle.unpublish()
        fresh = inline_cluster.new_group(Checker, 2)
        with pytest.raises(oopp.errors.PublicationError):
            fresh[0].digest(handle)


class TestAutoPublish:
    CFG = dict(wire=oopp.WireConfig(
        pub=oopp.PubConfig(publish_threshold_bytes=64 * 1024)))

    def test_group_broadcast_auto_publishes(self, tmp_path):
        with oopp.Cluster(n_machines=3, backend="inline",
                          storage_root=str(tmp_path / "r"),
                          **self.CFG) as cluster:
            base = counters().get("pub.published")
            group = cluster.new_group(Checker, 3)
            results = group.invoke("digest", Model(BLOB))
            assert results == [(len(BLOB), sum(BLOB[:64]))] * 3
            assert counters().get("pub.published") == base + 1

    def test_small_arguments_not_published(self, tmp_path):
        with oopp.Cluster(n_machines=3, backend="inline",
                          storage_root=str(tmp_path / "r"),
                          **self.CFG) as cluster:
            base = counters().get("pub.published")
            group = cluster.new_group(Checker, 3)
            group.invoke("digest", b"tiny")
            assert counters().get("pub.published") == base

    def test_new_group_shared_large_arg_published_once(self, tmp_path):
        with oopp.Cluster(n_machines=3, backend="inline",
                          storage_root=str(tmp_path / "r"),
                          **self.CFG) as cluster:
            base = counters().get("pub.published")
            model = Model(BLOB)
            group = cluster.new_group(Keeper, 6,
                                      argfn=lambda i: (i, model))
            assert counters().get("pub.published") == base + 1
            assert group.invoke("describe") == \
                [(i, len(BLOB)) for i in range(6)]

    def test_off_by_default(self, inline_cluster):
        base = counters().get("pub.published")
        group = inline_cluster.new_group(Checker, 3)
        group.invoke("digest", Model(BLOB))
        assert counters().get("pub.published") == base

    def test_requires_protocol5(self, tmp_path):
        with pytest.raises(oopp.errors.ConfigError, match="pickle_protocol"):
            oopp.Config(pickle_protocol=4, **self.CFG).validate()


class TestNewGroupMemoization:
    def test_identical_args_pickled_once(self, inline_cluster):
        CountingArg.pickles = 0
        arg = CountingArg(BLOB)
        group = inline_cluster.new_group(Keeper, 8, "shared", arg)
        assert CountingArg.pickles == 1, \
            f"shared fan-out args pickled {CountingArg.pickles}x"
        assert group.invoke("describe") == [("shared", len(BLOB))] * 8

    def test_members_stay_isolated(self, inline_cluster):
        # One frozen pickle, but each member decodes its own copy:
        # mutating one member's state never leaks into a sibling.
        group = inline_cluster.new_group(Keeper, 4, "t", CountingArg(b"x"))
        assert group[0].stamp("a") == ("t", "a")
        assert group[1].describe() == ("t", 1)

    def test_distinct_args_still_work(self, inline_cluster):
        CountingArg.pickles = 0
        group = inline_cluster.new_group(
            Keeper, 4, argfn=lambda i: (i, CountingArg(bytes([i]))))
        assert group.invoke("describe") == [(i, 1) for i in range(4)]
        # No memoization possible; each distinct argset pickled once.
        assert CountingArg.pickles == 4

    def test_memoized_fanout_on_every_backend(self, any_cluster):
        group = any_cluster.new_group(Keeper, 6, "same", CountingArg(b"y"))
        assert group.invoke("describe") == [("same", 1)] * 6

    def test_no_copy_inline_mode_unaffected(self, tmp_path):
        with oopp.Cluster(n_machines=2, backend="inline",
                          inline_copy=False,
                          storage_root=str(tmp_path / "r")) as cluster:
            CountingArg.pickles = 0
            group = cluster.new_group(Keeper, 4, "nc", CountingArg(b"z"))
            assert CountingArg.pickles == 0  # no serializer round trip
            assert group.invoke("describe") == [("nc", 1)] * 4


def _broadcast_program(cluster) -> list:
    model = Model(bytes(range(200)) * 1000)
    handle = cluster.publish(model)
    group = cluster.new_group(Checker, 3)
    first = group.invoke("digest", handle)
    second = group.invoke("digest", model)
    handle.unpublish()
    return [first, second]


class TestConformance:
    def test_publication_conformant_across_backends(self, tmp_path):
        report = conformance(_broadcast_program,
                             storage_root=str(tmp_path / "r"))
        assert report.consistent, report.summary()

    def test_pub_on_off_digests_match(self, tmp_path):
        # The same program must produce the same digest whether the
        # broadcast path pins publications or ships N pickles.
        def program(cluster):
            group = cluster.new_group(Checker, 3)
            return group.invoke("digest", Model(BLOB))

        on = conformance(program, storage_root=str(tmp_path / "on"),
                         wire=oopp.WireConfig(
                             pub=oopp.PubConfig(
                                 publish_threshold_bytes=1024)))
        off = conformance(program, storage_root=str(tmp_path / "off"))
        assert on.consistent, on.summary()
        assert off.consistent, off.summary()
        assert ({o.digest for o in on.outcomes}
                == {o.digest for o in off.outcomes})
