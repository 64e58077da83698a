"""Protocol introspection (the compiler-generated protocol made visible)."""

from __future__ import annotations

import pytest

import repro as oopp
from repro.errors import RuntimeLayerError
from repro.lint import lint_class
from repro.runtime.protocol import describe_protocol, protocol_of


def lint_messages(cls) -> list[str]:
    return [finding.message for finding in lint_class(cls)]


class Gadget:
    """A sample remote class."""

    def __init__(self, size: int, label: str = "g"):
        self.size = size
        self.label = label

    def poke(self, times: int = 1) -> int:
        """Poke the gadget."""
        return times

    def _internal(self):
        return None

    def __getitem__(self, k):
        return k

    def __len__(self):
        return self.size


class PicklableDefaults:
    """All constructor defaults ship over the wire."""

    def __init__(self, size=4, label="g", weights=(1.0, 2.0)):
        self.size, self.label, self.weights = size, label, weights


class TestDescribe:
    def test_public_methods_listed(self):
        proto = describe_protocol(Gadget)
        assert "poke" in proto.names()
        assert "_internal" not in proto.names()

    def test_constructor_signature(self):
        proto = describe_protocol(Gadget)
        assert "size" in proto.constructor and "label" in proto.constructor

    def test_docs_and_signatures_captured(self):
        proto = describe_protocol(Gadget)
        poke = next(m for m in proto.methods if m.name == "poke")
        assert poke.doc == "Poke the gadget."
        assert "times" in poke.signature

    def test_forwarded_dunders_listed(self):
        proto = describe_protocol(Gadget)
        dunders = [m.name for m in proto.methods if m.kind == "dunder"]
        assert "__getitem__" in dunders and "__len__" in dunders
        assert "__setitem__" not in dunders  # Gadget doesn't define it

    def test_implicit_operations_always_present(self):
        proto = describe_protocol(Gadget)
        implicit = [m.name for m in proto.methods if m.kind == "implicit"]
        assert "__oopp_getattr__" in implicit
        assert "<kernel>.destroy" in implicit

    def test_render_is_readable(self):
        text = describe_protocol(Gadget).render()
        assert "new(machine k) Gadget" in text
        assert "poke" in text and "operators" in text

    def test_non_class_rejected(self):
        with pytest.raises(RuntimeLayerError):
            describe_protocol("not a class")  # type: ignore[arg-type]


class TestProtocolOf:
    def test_from_instance(self):
        assert "poke" in protocol_of(Gadget(1)).names()

    def test_from_proxy_without_network(self, inline_cluster):
        g = inline_cluster.new(oopp.Block, 4, machine=1)
        before = inline_cluster.stats()[1]["calls_served"]
        proto = protocol_of(g)
        after = inline_cluster.stats()[1]["calls_served"]
        assert "sum" in proto.names()
        assert after == before + 1  # only the second stats() call itself

    def test_kernel_pointer_rejected(self, inline_cluster):
        from repro.runtime.proxy import Proxy

        kernel = Proxy(inline_cluster.fabric.kernel_ref(0),
                       inline_cluster.fabric)
        with pytest.raises(RuntimeLayerError, match="class spec"):
            protocol_of(kernel)


class TestValidate:
    def test_clean_class(self):
        assert lint_messages(Gadget) == []
        assert lint_messages(oopp.PageDevice) == []
        assert lint_messages(oopp.Block) == []

    def test_reserved_namespace_collision(self):
        class Bad:
            def __oopp_getattr__(self):
                return None

        warnings = lint_messages(Bad)
        assert any("reserved" in w for w in warnings)

    def test_local_class_warns(self):
        class Local:
            pass

        warnings = lint_messages(Local)
        assert any("local class" in w for w in warnings)

    def test_attribute_method_shadowing(self):
        class Shadow:
            value: int = 0

            def value(self):  # type: ignore[no-redef] # noqa: F811
                return 1

        warnings = lint_messages(Shadow)
        assert any("method stub" in w for w in warnings)


class TestValidateEdgeCases:
    def test_reserved_prefix_collision_flagged(self):
        # type() sidesteps Python's name mangling of __oopp_custom.
        Bad = type("Bad", (), {"__oopp_custom": 1})
        warnings = lint_messages(Bad)
        assert any("__oopp_custom" in w and "reserved" in w
                   for w in warnings)

    def test_every_implicit_operation_name_flagged(self):
        from repro.runtime.proxy import (
            GETATTR_METHOD,
            PING_METHOD,
            SETATTR_METHOD,
        )

        for reserved in (GETATTR_METHOD, SETATTR_METHOD, PING_METHOD):
            Bad = type("Bad", (), {reserved: lambda self: None})
            warnings = lint_messages(Bad)
            assert any(reserved in w for w in warnings), reserved

    def test_idempotent_registry_attribute_is_sanctioned(self):
        Good = type("Good", (), {
            "__oopp_idempotent__": frozenset({"get"}),
            "get": lambda self: 1,
        })
        assert lint_messages(Good) == []

    def test_unpicklable_constructor_default_flagged(self):
        class Bad:
            def __init__(self, callback=lambda x: x):
                self.callback = callback

        warnings = lint_messages(Bad)
        assert any("callback" in w and "not picklable" in w
                   for w in warnings)

    def test_picklable_defaults_are_clean(self):
        assert lint_messages(PicklableDefaults) == []

    def test_unpicklable_default_names_the_parameter(self):
        class Bad:
            def __init__(self, ok=1, broken=lambda: None, fine="x"):
                pass

        warnings = [w for w in lint_messages(Bad)
                    if "not picklable" in w]
        assert len(warnings) == 1 and "broken" in warnings[0]


class TestCallHeaderCache:
    def make(self, maxsize=4):
        from repro.runtime.protocol import CallHeaderCache

        return CallHeaderCache(maxsize=maxsize)

    def test_skeleton_is_a_valid_request_pickle(self):
        import pickle

        cache = self.make()
        skel = cache.skeleton(7, "sum", False, -1)
        kind, fields = pickle.loads(skel)
        assert kind == "req"
        assert fields == {"object_id": 7, "method": "sum",
                          "oneway": False, "caller": -1}

    def test_repeat_call_site_hits(self):
        cache = self.make()
        a = cache.skeleton(1, "m", False, 0)
        b = cache.skeleton(1, "m", False, 0)
        assert a is b
        assert cache.stats() == {"size": 1, "hits": 1, "misses": 1}

    def test_distinct_call_sites_miss(self):
        cache = self.make()
        cache.skeleton(1, "m", False, 0)
        cache.skeleton(1, "m", True, 0)   # oneway differs
        cache.skeleton(2, "m", False, 0)  # object differs
        cache.skeleton(1, "n", False, 0)  # method differs
        assert cache.stats()["misses"] == 4

    def test_lru_evicts_oldest(self):
        cache = self.make(maxsize=2)
        cache.skeleton(1, "a", False, 0)
        cache.skeleton(2, "b", False, 0)
        cache.skeleton(1, "a", False, 0)  # touch 1 -> 2 is now LRU
        cache.skeleton(3, "c", False, 0)  # evicts 2
        assert len(cache) == 2
        cache.skeleton(2, "b", False, 0)
        assert cache.stats()["misses"] == 4  # 2 was re-pickled

    def test_thread_safety_under_contention(self):
        import threading

        cache = self.make(maxsize=8)
        errors = []

        def hammer(tid):
            try:
                for i in range(300):
                    skel = cache.skeleton(i % 16, "m", False, tid)
                    assert isinstance(skel, bytes)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(t,))
                   for t in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not errors
        assert len(cache) <= 8
