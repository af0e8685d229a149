"""The whole-matrix distance expansion of ``euclidean_distance_matrix`` as first written.

It held the gram matrix and ``x² + y²`` as two ``(n, n)`` arrays at once;
the blocked version keeps one, and must give the same bits (stage
fingerprints, merges and representatives depend on them).
"""

from __future__ import annotations

import numpy as np


def euclidean_distance_matrix(vectors: np.ndarray) -> np.ndarray:
    arr = np.asarray(vectors, dtype=float)
    squared_norms = np.einsum("ij,ij->i", arr, arr)
    gram = arr @ arr.T
    gram *= 2.0
    squared = np.add.outer(squared_norms, squared_norms)
    squared -= gram
    del gram
    np.maximum(squared, 0.0, out=squared)
    np.fill_diagonal(squared, 0.0)
    return np.sqrt(squared, out=squared)
