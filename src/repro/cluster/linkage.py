"""Linkage strategies and their Lance–Williams update coefficients.

Agglomerative clustering repeatedly merges the two nearest clusters; after a
merge, the distance from the new cluster to every other cluster is obtained
with the Lance–Williams recurrence

    d(i∪j, k) = α_i d(i,k) + α_j d(j,k) + β d(i,j) + γ |d(i,k) - d(j,k)|

whose coefficients depend on the linkage criterion.  The paper uses
average linkage; single, complete and Ward linkage are provided for the
ablation study (benchmark A1).

:func:`lance_williams_update` applies it to a whole row of the square
matrix in place.
"""

from __future__ import annotations

import enum

import numpy as np


class Linkage(enum.Enum):
    """Supported linkage criteria."""

    SINGLE = "single"
    COMPLETE = "complete"
    AVERAGE = "average"
    WARD = "ward"


def lance_williams_coefficients(
    linkage: Linkage,
    size_i: int,
    size_j: int,
    size_k: int,
) -> tuple[float, float, float, float]:
    """Return ``(alpha_i, alpha_j, beta, gamma)`` for a merge of ``i`` and ``j``.

    ``size_i``/``size_j`` are the sizes of the merging clusters and ``size_k``
    the size of the third cluster whose distance is being updated.

    Note: for Ward linkage the recurrence applies to *squared* Euclidean
    distances; callers must square before updating and take the square root
    afterwards (handled inside the clustering implementation).
    """
    if min(size_i, size_j, size_k) <= 0:
        raise ValueError("cluster sizes must be positive")

    if linkage is Linkage.SINGLE:
        return 0.5, 0.5, 0.0, -0.5
    if linkage is Linkage.COMPLETE:
        return 0.5, 0.5, 0.0, 0.5
    if linkage is Linkage.AVERAGE:
        total = size_i + size_j
        return size_i / total, size_j / total, 0.0, 0.0
    if linkage is Linkage.WARD:
        total = size_i + size_j + size_k
        return (
            (size_i + size_k) / total,
            (size_j + size_k) / total,
            -size_k / total,
            0.0,
        )
    raise ValueError(f"unsupported linkage: {linkage!r}")


def lance_williams_update(
    linkage: Linkage,
    work: np.ndarray,
    x: int,
    y: int,
    sizes: np.ndarray,
    scratch: np.ndarray,
) -> None:
    """Overwrite row ``x`` of ``work`` with ``d(x∪y, k)`` for every slot ``k``.

    ``work`` is the agglomeration's square matrix (squared distances for
    Ward) with +inf on the diagonal and in retired columns, which stay +inf;
    ``sizes`` holds the sizes before the merge, ``scratch`` is one float64
    row, and row ``y`` is clobbered.  Each finite entry sees the operations
    of the recurrence above in its order, zero terms included where a −0.0
    could tell (average linkage's β and γ terms amount to ``+ 0.0``).
    """
    row, other = work[x], work[y]
    size_x, size_y = int(sizes[x]), int(sizes[y])
    if linkage is Linkage.WARD:
        d_xy = float(row[y])
        total = sizes + (size_x + size_y)
        np.divide(sizes + size_x, total, out=scratch)
        row *= scratch
        np.divide(sizes + size_y, total, out=scratch)
        other *= scratch
        row += other
        np.divide(sizes, total, out=scratch)
        scratch *= d_xy
        row -= scratch
        return
    alpha_x, alpha_y, beta, gamma = lance_williams_coefficients(
        linkage, size_x, size_y, 1
    )
    if linkage is Linkage.AVERAGE:
        row *= alpha_x
        other *= alpha_y
        row += other
        row += 0.0
        return
    # Where a row reads +inf, |inf - inf| or inf - inf gives NaN: fmin sets
    # exactly those entries back to +inf.
    d_xy = float(row[y])
    with np.errstate(invalid="ignore"):
        np.subtract(row, other, out=scratch)
        np.abs(scratch, out=scratch)
        scratch *= gamma
        row *= alpha_x
        other *= alpha_y
        row += other
        row += beta * d_xy
        row += scratch
    np.fmin(row, np.inf, out=row)
