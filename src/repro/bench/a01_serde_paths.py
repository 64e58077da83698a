"""A1 (ablation) — the dual serialization path.

DESIGN.md decision 3: control data via pickle, bulk numeric data via
zero-copy out-of-band buffers (the mpi4py lowercase/uppercase idiom).
This ablation disables the buffer path (pickle protocol 4 inlines
everything) and measures encode+decode wall time across payload sizes.
"""

from __future__ import annotations

import timeit

import numpy as np

from ..transport import serde
from .registry import experiment
from .report import Table

CLAIM = ("The out-of-band buffer path amortizes serialization: for "
         "large numpy payloads it beats inline pickling by an integer "
         "factor, while for small control messages the paths tie.")


def _roundtrip_seconds(payload, protocol: int, reps: int,
                       repeats: int = 5) -> float:
    """Fastest of *repeats* timed loops (a mean keeps scheduler noise)."""
    def roundtrip() -> None:
        header, buffers = serde.dumps(payload, protocol)
        serde.loads(header, [bytes(b) for b in buffers])

    return min(timeit.repeat(roundtrip, number=reps, repeat=repeats)) / reps


@experiment("A1", "Ablation: buffer path vs inline pickle", CLAIM,
            anchor="DESIGN §ablations")
def run(fast: bool = True) -> Table:
    sizes = [64, 1 << 12, 1 << 16, 1 << 20] if fast else \
        [64, 1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20, 1 << 22]
    table = Table(
        "A1: serde round trip, buffer path (proto 5) vs inline (proto 4)",
        ["payload (doubles)", "buffer path (s)", "inline (s)", "speedup"],
        note="Encode + decode of a float64 array, wall clock, "
             "fastest of 5 timed loops per cell.",
    )
    for n in sizes:
        payload = np.arange(n, dtype=np.float64)
        reps = max(2, min(100, (1 << 21) // max(n, 1)))
        t5 = _roundtrip_seconds(payload, 5, reps)
        t4 = _roundtrip_seconds(payload, 4, reps)
        table.add(n, t5, t4, t4 / t5)
    return table


def check(table: Table) -> None:
    speedups = table.column("speedup")
    sizes = table.column("payload (doubles)")
    # Small control messages: paths comparable (within 3x either way).
    assert 1 / 3 < speedups[0] < 3, (sizes[0], speedups[0])
    # Large payloads: buffer path wins clearly (no cross-size comparison:
    # which row the ratio peaks at depends on the box's caches).
    assert speedups[-1] > 1.3, (sizes[-1], speedups[-1])
