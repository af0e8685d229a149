"""The condensed pair layout, one pair at a time: the oracle for its users.

``repro.cluster.distance.condensed_from_square`` writes the upper triangle
of a distance matrix row by row (scipy's ``squareform`` layout) and the
``nn_chain`` backend reads it back through an offset table.  These helpers,
moved here from ``src`` once nothing there called them, spell the same
layout out directly; the full-matrix oracle expands its input with
:func:`square_from_condensed`.
"""

from __future__ import annotations

import numpy as np


def condensed_index(i: int, j: int, n: int) -> int:
    """Return the condensed (upper-triangular) index of the pair ``(i, j)``."""
    if i == j:
        raise ValueError("condensed form has no diagonal entries")
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"indices ({i}, {j}) out of range for n={n}")
    if i > j:
        i, j = j, i
    return int(n * i - (i * (i + 1)) // 2 + (j - i - 1))


def square_from_condensed(condensed: np.ndarray, num_observations: int) -> np.ndarray:
    """Return the symmetric ``(n, n)`` matrix encoded by ``condensed``."""
    arr = np.asarray(condensed, dtype=float).ravel()
    n = num_observations
    expected = n * (n - 1) // 2
    if arr.size != expected:
        raise ValueError(
            f"condensed form of {n} observations must have {expected} entries, "
            f"got {arr.size}"
        )
    square = np.zeros((n, n))
    rows, cols = np.triu_indices(n, k=1)
    square[rows, cols] = arr
    square[cols, rows] = arr
    return square
