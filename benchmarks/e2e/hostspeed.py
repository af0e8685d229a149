"""Host-speed reference: a fixed loop, timed between the program's work.

The benchmark runs on shared virtual machines whose speed drifts.  On a
2-core VM, the 30-second medians of one fixed pure-Python loop ranged over
14.1–18.9 ms (quartile spread 20%) within four minutes, and CPU time moved
with wall time, so the host slows the processor itself rather than taking
it away; a whole run can sit in a slow spell.  No run length averages
that out.  Every end-to-end timing is therefore scaled by the speed the
same phase of the same run measured::

    reported = measured × REFERENCE_S / median(reference loops of the phase)

and reads as seconds on a host that runs the reference loop in
``REFERENCE_S``.  Results also keep the unscaled values.  One factor per
phase, from every loop the phase timed, because a single loop is noisy:
the loops just before and just after one fit correlated only 0.55.

The loop uses only the standard library and numpy, never the program, so a
change to the program cannot move it.  It mixes the two kinds of work the
program does: interpreter work like the CSV reader's (``csv`` rows, field
conversion, per-key accumulation) and numpy work like the pipeline
stages' (memory-bound element-wise passes, a sort, a small matrix
product).  Over ten 24-second runs of each workload, a phase's median
loop correlated 0.58–0.80 with the raw fit time, and scaling cut the
quartile spread of ``fit_s`` from 14–21% to 10–15% of its median.  It runs
only while the program is idle: between fits, around server spawns, and
between blocks of closed-loop requests.
"""

from __future__ import annotations

import csv
import statistics
import time
from typing import Sequence

import numpy as np

#: Nominal seconds of one reference loop: about its median on the 2-core VM
#: the baseline was measured on, with single-threaded BLAS.
REFERENCE_S = 0.009


class HostSpeed:
    """The reference loop and its data (fixed, independent of any seed)."""

    def __init__(self) -> None:
        rng = np.random.default_rng(2015)
        self._rows = [
            f"{int(tower)},{start:.3f},{duration:.3f},{volume:.1f},{int(kind)}"
            for tower, start, duration, volume, kind in zip(
                rng.integers(0, 400, 2_000), rng.random(2_000) * 5e5,
                rng.random(2_000) * 600, rng.random(2_000) * 1e4, rng.integers(0, 3, 2_000),
            )
        ]
        self._vector = rng.random(400_000)
        self._matrix = rng.standard_normal((200, 200))
        # numpy writes into these: a fresh multi-megabyte temporary costs
        # whatever the process's allocator state makes it cost (the loop
        # ran 18.7 ms in a fresh process and 9.3 ms after generating inputs).
        self._vector_out = np.empty_like(self._vector)
        self._matrix_out = np.empty_like(self._matrix)

    def loop_s(self) -> float:
        """Wall seconds of one pass of the reference loop."""
        start = time.perf_counter()
        volume: dict[int, float] = {}
        for tower, _, duration, kind_volume, _ in csv.reader(self._rows):
            key = int(tower)
            volume[key] = volume.get(key, 0.0) + float(duration) * float(kind_volume)
        total = sum(volume.values())
        vector, matrix = self._vector_out, self._matrix_out
        for _ in range(2):
            np.negative(self._vector, out=vector)
            total += float(np.exp(vector, out=vector).sum())
            np.multiply(self._vector, 3.0, out=vector)
            total += float(np.add(vector, 1.0, out=vector).mean())
        matrix[...] = self._matrix
        matrix.sort(axis=1)
        total += float(matrix[:, 0].sum())
        total += float(np.matmul(self._matrix, self._matrix, out=matrix).trace())
        if total != total:  # consume the result; never true for finite data
            raise ArithmeticError("reference loop produced NaN")
        return time.perf_counter() - start

    def sample(self, repeats: int) -> list[float]:
        """``repeats`` timed passes of the loop."""
        return [self.loop_s() for _ in range(repeats)]


def scaled(measured_s: float, references: Sequence[float]) -> float:
    """``measured_s`` in seconds on a host that runs the loop in ``REFERENCE_S``."""
    return measured_s * REFERENCE_S / statistics.median(references)
