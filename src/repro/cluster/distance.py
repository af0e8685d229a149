"""Distance computations for the pattern identifier.

The paper uses the Euclidean distance between normalised traffic vectors.
Distances are computed with a numerically safe ``(x - y)² = x² + y² - 2xy``
expansion, vectorised over the whole matrix, which is orders of magnitude
faster than per-pair loops for the 4,032-dimensional traffic vectors.
"""

from __future__ import annotations

import numpy as np


def euclidean_distance_matrix(vectors: np.ndarray) -> np.ndarray:
    """Return the dense ``(n, n)`` Euclidean distance matrix of ``vectors``.

    Parameters
    ----------
    vectors:
        Array of shape ``(n, d)``.
    """
    arr = np.asarray(vectors, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"vectors must be 2-D, got shape {arr.shape}")
    squared_norms = np.einsum("ij,ij->i", arr, arr)
    # (x² + y²) - 2xy, evaluated in place so only two (n, n) arrays live.
    gram = arr @ arr.T
    gram *= 2.0
    squared = np.add.outer(squared_norms, squared_norms)
    squared -= gram
    del gram
    np.maximum(squared, 0.0, out=squared)
    np.fill_diagonal(squared, 0.0)
    return np.sqrt(squared, out=squared)


def pairwise_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Return the ``(len(a), len(b))`` Euclidean cross-distance matrix."""
    a_arr = np.asarray(a, dtype=float)
    b_arr = np.asarray(b, dtype=float)
    if a_arr.ndim != 2 or b_arr.ndim != 2:
        raise ValueError("both inputs must be 2-D")
    if a_arr.shape[1] != b_arr.shape[1]:
        raise ValueError(
            f"dimensionality mismatch: {a_arr.shape[1]} vs {b_arr.shape[1]}"
        )
    a_norms = np.einsum("ij,ij->i", a_arr, a_arr)
    b_norms = np.einsum("ij,ij->i", b_arr, b_arr)
    squared = a_norms[:, None] + b_norms[None, :] - 2.0 * (a_arr @ b_arr.T)
    np.maximum(squared, 0.0, out=squared)
    return np.sqrt(squared)


def condensed_from_square(matrix: np.ndarray) -> np.ndarray:
    """Return the condensed (upper-triangular, row-major) form of ``matrix``.

    Matches the layout used by :func:`scipy.spatial.distance.squareform`.
    """
    arr = np.asarray(matrix, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"matrix must be square, got shape {arr.shape}")
    n = arr.shape[0]
    if n < 2:
        return np.empty(0)
    return np.concatenate([arr[i, i + 1 :] for i in range(n - 1)])
