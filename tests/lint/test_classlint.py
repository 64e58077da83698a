"""Runtime class checks (OOPP110-114)."""

import pytest

import repro as oopp
from repro.lint import lint_class

pytestmark = pytest.mark.lint


class TestLintClass:
    def test_shipped_classes_are_clean(self):
        assert lint_class(oopp.PageDevice) == []
        assert lint_class(oopp.ArrayPageDevice) == []
        assert lint_class(oopp.Block) == []

    def test_not_a_class_raises(self):
        from repro.errors import RuntimeLayerError

        with pytest.raises(RuntimeLayerError):
            lint_class(42)

    def test_reserved_name_oopp110(self):
        Bad = type("Bad", (), {"__oopp_custom": 1})
        findings = lint_class(Bad)
        assert [f.code for f in findings] == ["OOPP110"]
        assert "reserved" in findings[0].message

    def test_reserved_name_found_across_mro(self):
        # a vars(cls)-only scan lets an inherited collision slip
        # through — the classic gap.
        Base = type("Base", (), {"__oopp_custom": 1})
        Child = type("Child", (Base,), {})
        findings = [f for f in lint_class(Child) if f.code == "OOPP110"]
        assert findings and "inherited from Base" in findings[0].message

    def test_implicit_operation_names_flagged(self):
        from repro.runtime.proxy import GETATTR_METHOD

        Bad = type("Bad", (), {GETATTR_METHOD: lambda self: None})
        assert any(f.code == "OOPP110" for f in lint_class(Bad))

    def test_idempotent_attr_itself_is_sanctioned(self):
        Good = type("Good", (), {
            "__oopp_idempotent__": frozenset({"get"}),
            "get": lambda self: 1,
        })
        assert lint_class(Good) == []

    def test_shadowed_annotation_oopp111(self):
        class Shadow:
            value: int = 0

            def value(self):  # type: ignore[no-redef] # noqa: F811
                return 1

        findings = [f for f in lint_class(Shadow) if f.code == "OOPP111"]
        assert findings and "method stub" in findings[0].message

    def test_unpicklable_default_oopp112(self):
        class Bad:
            def __init__(self, callback=lambda x: x):
                self.callback = callback

        findings = [f for f in lint_class(Bad) if f.code == "OOPP112"]
        assert len(findings) == 1
        assert "callback" in findings[0].message
        assert "not picklable" in findings[0].message

    def test_local_class_oopp113(self):
        class Local:
            pass

        findings = [f for f in lint_class(Local) if f.code == "OOPP113"]
        assert findings and "local class" in findings[0].message

    def test_registry_plain_string_oopp114(self):
        Bad = type("Bad", (), {"__oopp_idempotent__": "get",
                               "get": lambda self: 1})
        findings = [f for f in lint_class(Bad) if f.code == "OOPP114"]
        assert findings and "plain string" in findings[0].message

    def test_registry_non_string_entry_oopp114(self):
        Bad = type("Bad", (), {"__oopp_idempotent__": frozenset({7})})
        findings = [f for f in lint_class(Bad) if f.code == "OOPP114"]
        assert len(findings) == 1

    def test_registry_missing_method_oopp114(self):
        Bad = type("Bad", (), {"__oopp_idempotent__": frozenset({"nope"})})
        findings = [f for f in lint_class(Bad) if f.code == "OOPP114"]
        assert findings and "nope" in findings[0].message

    def test_registry_method_on_subclass_is_sanctioned(self):
        # PageDevice pre-registers read_page for ArrayPageDevice; the
        # missing-method check must look through loaded subclasses.
        Base = type("Base", (), {"__oopp_idempotent__": frozenset({"go"})})
        impl = type("Impl", (Base,), {"go": lambda self: 1})
        assert [f for f in lint_class(Base) if f.code == "OOPP114"] == []
        assert impl.__oopp_idempotent__ == frozenset({"go"})

    def test_registry_wrong_container_oopp114(self):
        Bad = type("Bad", (), {"__oopp_idempotent__": 42})
        findings = [f for f in lint_class(Bad) if f.code == "OOPP114"]
        assert len(findings) == 1

    def test_findings_carry_location_for_real_classes(self):
        findings = lint_class(oopp.PageDevice)
        assert findings == []
        # a class with source: location resolves to its file
        class Local:
            pass

        f = [x for x in lint_class(Local) if x.code == "OOPP113"][0]
        assert f.path.endswith("test_classlint.py")
        assert f.line > 0
