"""The whole-array z-score: ``(x − mean) / std`` with numpy's ``std``.

This is what :func:`repro.utils.stats.zscore_normalize` computed before it
wrote the result into one buffer and took the standard deviations a block of
rows at a time; the tests hold the two to the same bits.
"""

from __future__ import annotations

import numpy as np


def whole_array_zscore(values: np.ndarray, *, axis: int = -1, eps: float = 1e-12) -> np.ndarray:
    """Z-score along ``axis``; rows whose spread is round-off map to zeros."""
    arr = np.asarray(values, dtype=float)
    mean = arr.mean(axis=axis, keepdims=True)
    std = arr.std(axis=axis, keepdims=True)
    centered = arr - mean
    threshold = eps * np.maximum(np.abs(mean), 1.0)
    is_varying = std > threshold
    return np.where(is_varying, centered / np.where(is_varying, std, 1.0), 0.0)
