"""Convex combination of the four primary components.

Given the feature vectors ``F⁰_i`` of the four most representative towers
(one per pure urban function) and the feature ``F`` of an arbitrary tower,
the paper solves the quadratic program

    minimise   ||F - F^r||²
    subject to F^r = Σ_i x_i F⁰_i,   Σ_i x_i = 1,   x_i ≥ 0

and interprets the coefficient ``x_i`` as the share of urban function ``i``
around the tower.  Points inside the polygon get an exact convex
combination; points outside (pushed out by noise) are mapped to the nearest
point of the polygon — both cases are handled by the same solver
(:func:`repro.decompose.batch.decompose_features_batch`).
:class:`ConvexDecomposition` is the per-tower view of one row of its result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class ConvexDecomposition:
    """Result of decomposing one tower's feature vector.

    Attributes
    ----------
    tower_id:
        Tower being decomposed (-1 when decomposing a raw feature vector).
    coefficients:
        Convex combination coefficients, one per primary component, ordered
        like ``component_labels``.
    component_labels:
        Cluster labels of the primary components (column order of
        ``coefficients``).
    residual:
        Euclidean distance between the tower's feature and its projection
        ``F^r`` onto the polygon (0 for interior points up to noise).
    feature:
        The tower's original feature vector.
    projection:
        The reconstructed feature ``F^r``.
    """

    tower_id: int
    coefficients: np.ndarray
    component_labels: np.ndarray
    residual: float
    feature: np.ndarray
    projection: np.ndarray

    def __post_init__(self) -> None:
        self.coefficients = np.asarray(self.coefficients, dtype=float)
        self.component_labels = np.asarray(self.component_labels, dtype=int)
        self.feature = np.asarray(self.feature, dtype=float)
        self.projection = np.asarray(self.projection, dtype=float)
        if self.coefficients.shape != self.component_labels.shape:
            raise ValueError("coefficients and component_labels must align")

    @property
    def is_interior(self) -> bool:
        """True when the tower lies (numerically) inside the polygon."""
        return self.residual <= 1e-6 * max(1.0, float(np.linalg.norm(self.feature)))

    def dominant_component(self) -> int:
        """Return the cluster label of the largest coefficient."""
        return int(self.component_labels[int(np.argmax(self.coefficients))])

    def coefficient_of(self, cluster_label: int) -> float:
        """Return the coefficient attached to ``cluster_label``."""
        matches = np.nonzero(self.component_labels == cluster_label)[0]
        if matches.size == 0:
            raise KeyError(f"cluster {cluster_label} is not a primary component")
        return float(self.coefficients[int(matches[0])])

    def as_dict(self) -> dict[int, float]:
        """Return ``{cluster_label: coefficient}``."""
        return {
            int(label): float(coefficient)
            for label, coefficient in zip(self.component_labels, self.coefficients)
        }
