"""The condensed pair layout: scipy's ``squareform`` order, kept for the tests.

:func:`condensed_from_square` writes the upper triangle of a distance
matrix row by row, :func:`condensed_index` names one pair's slot, and
:func:`square_from_condensed` expands the layout again.  They moved here
from ``src`` once nothing there called them: the ``nn_chain`` backend
agglomerates on the square matrix itself.
"""

from __future__ import annotations

import numpy as np


def condensed_from_square(matrix: np.ndarray) -> np.ndarray:
    """Return the condensed (upper-triangular, row-major) form of ``matrix``."""
    arr = np.asarray(matrix, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"matrix must be square, got shape {arr.shape}")
    n = arr.shape[0]
    if n < 2:
        return np.empty(0)
    return np.concatenate([arr[i, i + 1 :] for i in range(n - 1)])


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
