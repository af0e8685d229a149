"""Distance computations for the pattern identifier.

The paper uses the Euclidean distance between normalised traffic vectors.
Distances are computed with a numerically safe ``(x - y)² = x² + y² - 2xy``
expansion, vectorised over the whole matrix, which is orders of magnitude
faster than per-pair loops for the 4,032-dimensional traffic vectors.
"""

from __future__ import annotations

import numpy as np

from repro.utils.stats import row_blocks


def euclidean_distance_matrix(vectors: np.ndarray) -> np.ndarray:
    """Return the dense ``(n, n)`` Euclidean distance matrix of ``vectors``.

    The gram matrix ``X Xᵀ`` is the only ``(n, n)`` array: row block by
    row block it becomes ``sqrt(max(x² + y² - 2xy, 0))`` in place, with a
    zero diagonal, so the peak is the result plus one block's ``x² + y²``
    (:func:`~repro.utils.stats.row_blocks`, 256 KiB).
    Each entry sees the same operations in the same order as the
    whole-matrix expansion, so the bits do not depend on the block size.

    Parameters
    ----------
    vectors:
        Array of shape ``(n, d)``.
    """
    arr = np.asarray(vectors, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"vectors must be 2-D, got shape {arr.shape}")
    n = arr.shape[0]
    squared_norms = np.einsum("ij,ij->i", arr, arr)
    result = arr @ arr.T
    for block in row_blocks(n, n):
        rows = result[block]
        rows *= 2.0
        np.subtract(np.add.outer(squared_norms[block], squared_norms), rows, out=rows)
        np.maximum(rows, 0.0, out=rows)
        rows[np.arange(block.stop - block.start), np.arange(block.start, block.stop)] = 0.0
        np.sqrt(rows, out=rows)
    return result


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
