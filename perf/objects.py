"""Remote classes the workloads host.

They live in an importable module (not ``run.py``'s ``__main__``) so
that the tcp daemon, which is a fresh interpreter, can resolve them.
"""

from __future__ import annotations


class Echo:
    """The paper's smallest remote method: one argument, returned."""

    def echo(self, x):
        return x


class PageStore:
    """Holds the last page written; ``put`` is the write, ``get`` the read."""

    def __init__(self) -> None:
        self.page = None

    def put(self, page) -> int:
        self.page = page
        return len(page)

    def get(self):
        return self.page
