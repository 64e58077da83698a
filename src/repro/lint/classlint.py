"""Runtime class checks: lint a *live* class object before deployment.

Pre-deployment checks with rule codes, including the edge cases a
``vars(cls)``-only scan misses:

* **OOPP110** reserved-name collisions are found over the whole MRO,
  not just ``vars(cls)`` (an inherited ``__oopp_custom`` used to slip
  through);
* **OOPP114** validates the ``__oopp_idempotent__`` registry itself —
  a plain string (which iterates as characters), non-string entries,
  and entries naming methods the class does not define.

Locations point at the class's source file and definition line when
:mod:`inspect` can find them, so findings render flake8-style next to
the static rules.
"""

from __future__ import annotations

import inspect
import pickle
from typing import Iterator

from ..runtime.proxy import IDEMPOTENT_ATTR
from .findings import LintFinding
from .registry import register_meta

register_meta("OOPP110", "reserved-name-collision",
              "class member collides with the reserved __oopp_* / "
              "implicit-operation namespace",
              "§3 — the protocol is generated from the class description")
register_meta("OOPP111", "attribute-shadowed-by-stub",
              "annotated attribute shares a name with a method; proxies "
              "always resolve the method stub",
              "§3 — one name, one protocol entry")
register_meta("OOPP112", "unpicklable-ctor-default",
              "constructor default cannot pickle onto the wire",
              "§3 — `new(machine k)` ships constructor arguments by value")
register_meta("OOPP113", "local-class",
              "class defined in a local scope cannot resolve on spawned "
              "machines",
              "§3 — classes must be importable where objects live")
register_meta("OOPP114", "bad-idempotent-registry",
              "__oopp_idempotent__ registry is malformed or names missing "
              "methods",
              "§5 — retry safety is declared per method, by name")


def _family_defines(cls: type, method: str) -> bool:
    """True when *cls* or any (transitively loaded) subclass has
    *method* — base classes legitimately pre-register idempotent
    methods their subclasses implement (e.g. ``PageDevice`` declares
    ``read_page`` for ``ArrayPageDevice``)."""
    if callable(getattr(cls, method, None)):
        return True
    try:
        subclasses = list(cls.__subclasses__())
    except TypeError:       # type itself
        return False
    seen = set()
    while subclasses:
        sub = subclasses.pop()
        if sub in seen:
            continue
        seen.add(sub)
        if callable(getattr(sub, method, None)):
            return True
        subclasses.extend(sub.__subclasses__())
    return False


def _location(cls: type) -> tuple[str, int]:
    try:
        path = inspect.getsourcefile(cls) or "<class>"
        _, line = inspect.getsourcelines(cls)
    except (OSError, TypeError):
        return "<class>", 0
    return path, line


def _iter_findings(cls: type) -> Iterator[LintFinding]:
    from ..runtime.protocol import IMPLICIT_OPERATIONS, describe_protocol

    path, line = _location(cls)
    qual = cls.__qualname__

    def finding(code: str, message: str, symbol: str = "",
                suggestion: str = "") -> LintFinding:
        return LintFinding(code=code, message=message, path=path, line=line,
                           symbol=symbol or qual, suggestion=suggestion)

    # OOPP110 — reserved names, over the whole MRO (old helper looked at
    # vars(cls) only, so inherited collisions slipped through).
    implicit_names = {name for name, _, _ in IMPLICIT_OPERATIONS}
    seen: set = set()
    for klass in cls.__mro__:
        if klass is object:
            continue
        for name in vars(klass):
            if name in seen or name == IDEMPOTENT_ATTR:
                continue        # the one __oopp_* name classes may define
            seen.add(name)
            if name.startswith("__oopp_") or name in implicit_names:
                where = "" if klass is cls else \
                    f" (inherited from {klass.__qualname__})"
                yield finding(
                    "OOPP110",
                    f"{qual}.{name} collides with the reserved "
                    f"__oopp_* namespace{where}",
                    symbol=f"{qual}.{name}",
                    suggestion="rename the member")

    # OOPP112 — unpicklable constructor defaults
    try:
        sig = inspect.signature(cls.__init__)
    except (TypeError, ValueError):
        sig = None
    if sig is not None:
        for pname, param in sig.parameters.items():
            if param.default is inspect.Parameter.empty:
                continue
            try:
                pickle.dumps(param.default)
            except Exception:  # noqa: BLE001 - any failure means "won't ship"
                yield finding(
                    "OOPP112",
                    f"{qual} constructor default for {pname!r} is not "
                    "picklable; remote construction that relies on it "
                    "will fail on the wire",
                    symbol=f"{qual}.__init__",
                    suggestion="use a picklable default (None + fill-in)")

    # OOPP111 — annotated attribute shadowed by a method stub
    public_methods = {m.name for m in describe_protocol(cls).methods}
    annotations = getattr(cls, "__annotations__", {})
    for name in annotations:
        if name in public_methods:
            yield finding(
                "OOPP111",
                f"{qual}.{name} is both an annotated attribute and a "
                "method; proxies always resolve it as a method stub",
                symbol=f"{qual}.{name}",
                suggestion="rename the attribute or the method")

    # OOPP113 — local class
    if "<locals>" in qual:
        yield finding(
            "OOPP113",
            f"{qual} is a local class: it resolves on forked machines "
            "only if created before the cluster, and never under spawn",
            suggestion="move the class to module level")

    # OOPP114 — malformed idempotent registry
    registry = inspect.getattr_static(cls, IDEMPOTENT_ATTR, None)
    if registry is not None:
        if isinstance(registry, str):
            yield finding(
                "OOPP114",
                f"{qual}.{IDEMPOTENT_ATTR} is a plain string; it would be "
                "matched character by character, not as one method name",
                suggestion="wrap it: frozenset({...})")
        elif not isinstance(registry, (set, frozenset, list, tuple)):
            yield finding(
                "OOPP114",
                f"{qual}.{IDEMPOTENT_ATTR} must be a collection of method "
                f"names, not {type(registry).__name__}",
                suggestion="use a frozenset of method-name strings")
        else:
            for entry in registry:
                if not isinstance(entry, str):
                    yield finding(
                        "OOPP114",
                        f"{qual}.{IDEMPOTENT_ATTR} entry {entry!r} is not "
                        "a method-name string",
                        suggestion="use method-name strings")
                elif not _family_defines(cls, entry):
                    yield finding(
                        "OOPP114",
                        f"{qual}.{IDEMPOTENT_ATTR} names {entry!r} but "
                        "neither the class nor any loaded subclass "
                        "defines such a method",
                        symbol=f"{qual}.{entry}",
                        suggestion="fix the name or drop the entry")


def lint_class(cls: type) -> list[LintFinding]:
    """Runtime lint of a class intended for remote deployment.

    Returns structured :class:`LintFinding`\\ s (codes ``OOPP110`` —
    ``OOPP114``); an empty list means the class is clean.
    """
    from ..errors import RuntimeLayerError

    if not isinstance(cls, type):
        raise RuntimeLayerError(
            f"expected a class, got {type(cls).__name__}")
    return list(_iter_findings(cls))
