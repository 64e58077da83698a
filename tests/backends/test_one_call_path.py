"""Architecture guard: the call sequence exists once.

The paper's contract is one sequence — stub → request → object server
→ reply → wake the caller.  Backends supply only how a request travels
and how a waiter blocks; everything else lives at exactly one site
(see DESIGN.md, "The call path").  This test reads the source with
:mod:`ast` (no cluster is started) and fails when a backend pastes a
second copy of the client half, the machine assembly, or a per-machine
observability gather.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

import repro

SRC = pathlib.Path(repro.__file__).parent
SCOPE = sorted((SRC / "backends").glob("*.py")) + sorted(
    (SRC / "runtime").glob("*.py"))


def _called_name(call: ast.Call) -> str:
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(
        func, "id", "")


def call_sites(name: str) -> list[str]:
    """``file:line`` of every call of *name* (bare or as an attribute)."""
    return [f"{path.relative_to(SRC)}:{node.lineno}"
            for path in SCOPE
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call) and _called_name(node) == name]


def functions_mentioning(literal: str) -> list[str]:
    """``file:function`` of every function holding *literal* as a string
    constant outside its docstring."""
    found = []
    for path in SCOPE:
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            doc = ast.get_docstring(fn, clean=False)
            if any(isinstance(n, ast.Constant) and n.value == literal
                   and n.value != doc for n in ast.walk(fn)):
                found.append(f"{path.relative_to(SRC)}:{fn.name}")
    return found


def test_scope_is_not_empty():
    names = {p.name for p in SCOPE}
    assert {"base.py", "inline.py", "sim.py", "mp.py", "tcp.py",
            "server.py"} <= names


@pytest.mark.parametrize("callee,home", [
    ("Request", "backends/base.py"),       # the client half builds it ...
    ("start_client", "backends/base.py"),  # ... and opens the client span
    ("Dispatcher", "runtime/server.py"),   # MachineCore assembles the
    ("ServePolicy", "runtime/server.py"),  # serving half
])
def test_one_site_per_step(callee, home):
    sites = call_sites(callee)
    assert [s.split(":")[0] for s in sites] == [home], (
        f"{callee}( must be called at exactly one site under backends/ + "
        f"runtime/ (Fabric._issue / MachineCore, in {home}); found {sites}")


@pytest.mark.parametrize("verb", [
    "take_spans", "take_race_reports", "obs_metrics"])
def test_one_gather_per_kernel_verb(verb):
    gatherers = functions_mentioning(verb)
    assert len(gatherers) == 1, (
        f"kernel verb {verb!r} must be gathered in exactly one function "
        f"(DriverFabric); found {gatherers}")
