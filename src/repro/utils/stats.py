"""Small statistics helpers shared across the library."""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

#: Elements per row block of the passes that stream a matrix a few rows at a
#: time (:func:`row_blocks`): a block's temporary is 256 KiB, whatever the
#: row length.
BLOCK_ELEMENTS = 1 << 15


def row_blocks(num_rows: int, row_length: int) -> Iterator[slice]:
    """Yield consecutive row slices of at most :data:`BLOCK_ELEMENTS` elements.

    Every block holds at least one row, so a row longer than the budget is
    its own block.
    """
    step = max(1, BLOCK_ELEMENTS // max(row_length, 1))
    for start in range(0, num_rows, step):
        yield slice(start, min(start + step, num_rows))


@dataclass(frozen=True)
class SummaryStats:
    """Summary statistics for a one-dimensional sample."""

    count: int
    mean: float
    std: float
    minimum: float
    maximum: float
    median: float

    def as_dict(self) -> dict[str, float]:
        """Return the statistics as a plain dictionary."""
        return {
            "count": float(self.count),
            "mean": self.mean,
            "std": self.std,
            "min": self.minimum,
            "max": self.maximum,
            "median": self.median,
        }


def describe(values: np.ndarray) -> SummaryStats:
    """Return :class:`SummaryStats` for ``values``.

    Raises
    ------
    ValueError
        If ``values`` is empty.
    """
    arr = np.asarray(values, dtype=float).ravel()
    if arr.size == 0:
        raise ValueError("cannot describe an empty array")
    return SummaryStats(
        count=int(arr.size),
        mean=float(np.mean(arr)),
        std=float(np.std(arr)),
        minimum=float(np.min(arr)),
        maximum=float(np.max(arr)),
        median=float(np.median(arr)),
    )


def zscore_normalize(values: np.ndarray, *, axis: int = -1, eps: float = 1e-12) -> np.ndarray:
    """Return the z-score normalisation of ``values`` along ``axis``.

    Constant rows (zero standard deviation) are mapped to all-zeros rather
    than producing NaNs, matching the behaviour required by the traffic
    vectorizer where an entirely idle tower must not poison the clustering.

    ``x − mean`` is written once into the result, and ``arr.std``'s
    arithmetic (the mean of the squared centred values, then the root) runs
    on that buffer a block of rows at a time, so the only array of the
    input's size is the result and the bits are those of
    ``(x − x.mean()) / x.std()``.
    """
    arr = np.asarray(values, dtype=float)
    mean = arr.mean(axis=axis, keepdims=True)
    result = np.subtract(arr, mean)
    rows = np.moveaxis(result, axis, -1)
    rows = rows.reshape(mean.size, rows.shape[-1])
    sums_of_squares = np.empty(mean.size)
    for block in row_blocks(*rows.shape):
        centered = rows[block]
        sums_of_squares[block] = np.add.reduce(centered * centered, axis=1)
    std = np.sqrt(sums_of_squares / rows.shape[1]).reshape(mean.shape)
    # Scale-aware constant detection: a row whose spread is at floating-point
    # noise level relative to its magnitude is treated as constant, otherwise
    # the division would amplify pure round-off into ±1 values.
    threshold = eps * np.maximum(np.abs(mean), 1.0)
    is_varying = std > threshold
    np.divide(result, std, out=result, where=is_varying)
    np.copyto(result, 0.0, where=~is_varying)
    return result


def min_max_normalize(
    values: np.ndarray, *, axis: int = -1, eps: float = 1e-12
) -> np.ndarray:
    """Return the min-max normalisation of ``values`` along ``axis``.

    Constant slices are mapped to zeros (the paper uses min-max normalisation
    on POI counts, where a POI type that never occurs must stay at zero).
    """
    arr = np.asarray(values, dtype=float)
    low = arr.min(axis=axis, keepdims=True)
    high = arr.max(axis=axis, keepdims=True)
    span = high - low
    return np.where(span > eps, (arr - low) / np.where(span > eps, span, 1.0), 0.0)


def safe_ratio(numerator: float, denominator: float, *, default: float = float("inf")) -> float:
    """Return ``numerator / denominator`` guarding against a zero denominator."""
    if denominator == 0:
        return default if numerator != 0 else 0.0
    return numerator / denominator


def running_mean(values: np.ndarray, window: int) -> np.ndarray:
    """Return the centred running mean of ``values`` with the given window.

    The output has the same length as the input; edges are averaged over the
    available samples only (no padding artefacts).
    """
    arr = np.asarray(values, dtype=float).ravel()
    if window <= 0:
        raise ValueError(f"window must be positive, got {window}")
    if window == 1 or arr.size == 0:
        return arr.copy()
    kernel = np.ones(window)
    padded_sum = np.convolve(arr, kernel, mode="same")
    counts = np.convolve(np.ones_like(arr), kernel, mode="same")
    return padded_sum / counts


def energy(values: np.ndarray) -> float:
    """Return the signal energy ``sum(x^2)`` of ``values``."""
    arr = np.asarray(values, dtype=float).ravel()
    return float(np.sum(arr * arr))


def relative_energy_loss(original: np.ndarray, reconstructed: np.ndarray) -> float:
    """Return ``|E(rec) - E(orig)| / E(orig)``, the paper's energy-loss metric.

    The paper reports that keeping the three principal DFT components loses
    less than 6% of total energy; this helper computes exactly that quantity.
    """
    orig = np.asarray(original, dtype=float).ravel()
    rec = np.asarray(reconstructed, dtype=float).ravel()
    if orig.shape != rec.shape:
        raise ValueError(
            f"shape mismatch: original {orig.shape} vs reconstructed {rec.shape}"
        )
    base = energy(orig)
    if base == 0:
        return 0.0
    return abs(energy(rec) - base) / base


def pearson_correlation(x: np.ndarray, y: np.ndarray) -> float:
    """Return the Pearson correlation coefficient between ``x`` and ``y``.

    Returns 0.0 when either input is constant (instead of NaN).
    """
    xa = np.asarray(x, dtype=float).ravel()
    ya = np.asarray(y, dtype=float).ravel()
    if xa.shape != ya.shape:
        raise ValueError(f"shape mismatch: {xa.shape} vs {ya.shape}")
    if xa.size < 2:
        raise ValueError("need at least two samples for a correlation")
    xs = xa - xa.mean()
    ys = ya - ya.mean()
    denom = np.sqrt(np.sum(xs * xs) * np.sum(ys * ys))
    if denom == 0:
        return 0.0
    return float(np.sum(xs * ys) / denom)
