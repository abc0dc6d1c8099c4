"""A fixed reference loop that gauges how fast the machine runs Python now.

On a shared host the speed of the same pass drifts by tens of percent over
minutes, as other tenants load the physical cores.  The measuring worker runs
``reference_chunk()`` before every check and after the last one, so each
check is bracketed by two samples of the machine's current speed, and
``calibrated_wall`` rescales each check's wall time to the speed at which one
chunk takes ``REF_CHUNK_S`` seconds.

The loop does not touch mslab, so no change to mslab can move it.  It mixes
the kinds of work mslab's hot paths do: small-object construction, attribute
access, float arithmetic through function calls, dict updates and 3x3 numpy
products.
"""

from __future__ import annotations

import time

import numpy as np

# Iterations of one chunk: about 0.05 s on a 2-vCPU cloud VM.
REF_ITERATIONS = 50000
# Nominal duration of one chunk: calibrated times are in seconds on a machine
# that runs one chunk in this time.
REF_CHUNK_S = 0.05


class _Triple:
    __slots__ = ("a", "b", "c")

    def __init__(self, a: float, b: float, c: float):
        self.a, self.b, self.c = a, b, c


def _step(t: _Triple, k: float) -> _Triple:
    return _Triple((t.b * k + 0.25) % 3.0, (t.c - k * t.a) % 5.0,
                   (t.a + t.b / 3.0) % 7.0)


_ROT = np.array([[0.6, -0.8, 0.0], [0.8, 0.6, 0.0], [0.0, 0.0, 1.0]])


def reference_chunk() -> float:
    """Run one chunk of the reference loop and return its wall time."""
    start = time.perf_counter()
    t = _Triple(0.1, 0.2, 0.3)
    table = {}
    m = np.eye(3)
    for i in range(REF_ITERATIONS):
        t = _step(t, 0.5)
        table[i & 255] = t.a + t.b * t.c
        if i & 7 == 0:
            m = _ROT @ m
            table[256] = float(m[0, 0]) + float(sum(table.get(j, 0.0) for j in range(4)))
    return time.perf_counter() - start


def calibrated_wall(check_walls, ref_walls) -> float:
    """Sum of the check times, each divided by the mean of the two reference
    chunks around it and multiplied by ``REF_CHUNK_S``.

    ``ref_walls`` has one more entry than ``check_walls``: chunk i runs just
    before check i, and the last chunk after the last check.
    """
    if len(ref_walls) != len(check_walls) + 1:
        raise ValueError("need one reference chunk before each check and one after")
    return REF_CHUNK_S * sum(2.0 * wall / (ref_walls[i] + ref_walls[i + 1])
                             for i, wall in enumerate(check_walls))
