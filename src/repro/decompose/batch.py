"""Whole-city convex decomposition in one vectorized call.

The paper decomposes *every* tower's frequency feature onto the primary
components (Section 5.4); doing that one tower at a time is thousands of tiny
quadratic programs.  :func:`decompose_features_batch` runs the batched
active-set kernel (:func:`repro.decompose.simplex.simplex_constrained_least_squares_batch`)
over the full ``(towers × feature_dim)`` matrix and returns a
:class:`BatchDecomposition` — a struct-of-ndarrays holding all coefficients,
residuals and projections at once, with per-tower
:class:`~repro.decompose.convex.ConvexDecomposition` views for callers that
still think in single towers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.decompose.convex import ConvexDecomposition
from repro.decompose.representative import RepresentativeTowers
from repro.decompose.simplex import simplex_constrained_least_squares_batch


@dataclass
class BatchDecomposition:
    """Convex decompositions of many towers, stored column-major by field.

    Attributes
    ----------
    tower_ids:
        Tower of each row, shape ``(n,)`` (-1 for raw feature vectors).
    coefficients:
        Convex combination coefficients, shape ``(n, k)``; column order
        follows ``component_labels``.
    component_labels:
        Cluster labels of the primary components, shape ``(k,)``.
    residuals:
        Euclidean distance of each tower's feature to its projection onto
        the polygon, shape ``(n,)``.
    features:
        The decomposed feature vectors, shape ``(n, d)``.
    projections:
        The reconstructed features ``F^r``, shape ``(n, d)``.
    """

    tower_ids: np.ndarray
    coefficients: np.ndarray
    component_labels: np.ndarray
    residuals: np.ndarray
    features: np.ndarray
    projections: np.ndarray

    def __post_init__(self) -> None:
        self.tower_ids = np.asarray(self.tower_ids, dtype=int)
        self.coefficients = np.asarray(self.coefficients, dtype=float)
        self.component_labels = np.asarray(self.component_labels, dtype=int)
        self.residuals = np.asarray(self.residuals, dtype=float)
        self.features = np.asarray(self.features, dtype=float)
        self.projections = np.asarray(self.projections, dtype=float)
        n = self.tower_ids.shape[0]
        if self.coefficients.shape != (n, self.component_labels.shape[0]):
            raise ValueError(
                "coefficients must be (towers, components), got "
                f"{self.coefficients.shape} for {n} towers and "
                f"{self.component_labels.shape[0]} components"
            )
        if self.residuals.shape != (n,):
            raise ValueError("residuals must have one entry per tower")
        if self.features.shape != self.projections.shape or self.features.shape[0] != n:
            raise ValueError("features and projections must be (towers, dim)")

    def __len__(self) -> int:
        return int(self.tower_ids.shape[0])

    @property
    def num_components(self) -> int:
        """Number of primary components ``k``."""
        return int(self.component_labels.shape[0])

    def row_of(self, tower_id: int) -> int:
        """Return the row index of ``tower_id``.

        Raises
        ------
        KeyError
            If the tower is not part of this batch.
        """
        matches = np.nonzero(self.tower_ids == int(tower_id))[0]
        if matches.size == 0:
            raise KeyError(f"tower {int(tower_id)} not present")
        return int(matches[0])

    def at(self, index: int) -> ConvexDecomposition:
        """Return row ``index`` as a :class:`ConvexDecomposition` view."""
        index = int(index)
        if not -len(self) <= index < len(self):
            raise IndexError(f"row {index} out of range for {len(self)} towers")
        return ConvexDecomposition(
            tower_id=int(self.tower_ids[index]),
            coefficients=self.coefficients[index].copy(),
            component_labels=self.component_labels.copy(),
            residual=float(self.residuals[index]),
            feature=self.features[index].copy(),
            projection=self.projections[index].copy(),
        )

    def decomposition_of(self, tower_id: int) -> ConvexDecomposition:
        """Return the decomposition of one tower by id."""
        return self.at(self.row_of(tower_id))

    def __iter__(self) -> Iterator[ConvexDecomposition]:
        return (self.at(index) for index in range(len(self)))

    def take(self, indices: np.ndarray) -> "BatchDecomposition":
        """Return a sub-batch of the given rows (in the given order)."""
        rows = np.asarray(indices, dtype=int)
        return BatchDecomposition(
            tower_ids=self.tower_ids[rows],
            coefficients=self.coefficients[rows],
            component_labels=self.component_labels.copy(),
            residuals=self.residuals[rows],
            features=self.features[rows],
            projections=self.projections[rows],
        )

    def dominant_components(self) -> np.ndarray:
        """Return the cluster label of each tower's largest coefficient."""
        return self.component_labels[np.argmax(self.coefficients, axis=1)]

    def coefficients_for(self, cluster_label: int) -> np.ndarray:
        """Return the ``(n,)`` coefficient column of one primary component."""
        matches = np.nonzero(self.component_labels == int(cluster_label))[0]
        if matches.size == 0:
            raise KeyError(f"cluster {cluster_label} is not a primary component")
        return self.coefficients[:, int(matches[0])].copy()

    def interior_mask(self, *, relative_tolerance: float = 1e-6) -> np.ndarray:
        """Boolean mask of towers lying (numerically) inside the polygon.

        Matches :attr:`ConvexDecomposition.is_interior` row by row.
        """
        scale = np.maximum(1.0, np.linalg.norm(self.features, axis=1))
        return self.residuals <= relative_tolerance * scale

    def as_rows(self) -> list[dict[str, object]]:
        """Return one JSON/CSV-friendly dict per tower."""
        return [
            {
                "tower_id": int(self.tower_ids[index]),
                "coefficients": {
                    str(int(label)): float(value)
                    for label, value in zip(self.component_labels, self.coefficients[index])
                },
                "residual": float(self.residuals[index]),
            }
            for index in range(len(self))
        ]


def decompose_features_batch(
    feature_matrix: np.ndarray,
    representatives: RepresentativeTowers,
    *,
    tower_ids: np.ndarray | None = None,
    exhaustive_limit: int = 12,
    max_iterations: int = 2_000,
    tolerance: float = 1e-10,
    chunk_size: int | None = None,
    stats: dict | None = None,
) -> BatchDecomposition:
    """Decompose every row of ``feature_matrix`` onto the primary components.

    One call processes the whole ``(n, d)`` matrix; row ``i`` agrees with
    the per-tower solver of ``tests/oracles/simplex.py`` on ``feature_matrix[i]``
    within ``1e-9`` per coefficient, residual and projection.

    Parameters
    ----------
    feature_matrix:
        Feature vectors to decompose, shape ``(n, d)``.
    representatives:
        The primary components (``k`` vertices in feature space).  A single
        representative (``k = 1``, degenerate polygon) is valid: every tower
        gets coefficient ``[1.0]`` and residual = distance to the lone
        vertex.
    tower_ids:
        Optional ``(n,)`` tower identifiers; default -1 (raw vectors).
    exhaustive_limit, max_iterations, tolerance, chunk_size, stats:
        Passed through to
        :func:`~repro.decompose.simplex.simplex_constrained_least_squares_batch`
        (``stats`` is an optional dict filled with the solver's counters —
        rows, chunks, faces enumerated, fallback rows).
    """
    matrix = np.asarray(feature_matrix, dtype=float)
    if matrix.ndim != 2:
        raise ValueError(f"feature_matrix must be 2-D, got shape {matrix.shape}")
    vertices = representatives.features
    if tower_ids is None:
        ids = np.full(matrix.shape[0], -1, dtype=int)
    else:
        ids = np.asarray(tower_ids, dtype=int)
        if ids.shape != (matrix.shape[0],):
            raise ValueError("tower_ids must have one entry per feature row")
    coefficients, residuals = simplex_constrained_least_squares_batch(
        vertices,
        matrix,
        exhaustive_limit=exhaustive_limit,
        max_iterations=max_iterations,
        tolerance=tolerance,
        chunk_size=chunk_size,
        stats=stats,
    )
    return BatchDecomposition(
        tower_ids=ids,
        coefficients=coefficients,
        component_labels=representatives.cluster_labels.copy(),
        residuals=residuals,
        features=matrix.copy(),
        projections=coefficients @ vertices,
    )
