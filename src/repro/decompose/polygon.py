"""Polygon/hull diagnostics in the frequency-feature space (Fig. 17).

The paper states that towers are distributed inside (or along the faces of)
the polygon spanned by the four most representative towers.  These helpers
quantify that statement: they return the polygon vertices and measure which
fraction of towers lies inside the convex hull of the vertices (up to a
noise tolerance), using the same simplex-constrained solver as the
decomposition itself.
"""

from __future__ import annotations

import numpy as np

from repro.decompose.representative import RepresentativeTowers
from repro.decompose.simplex import simplex_constrained_least_squares_batch


def polygon_vertices(representatives: RepresentativeTowers) -> np.ndarray:
    """Return the polygon vertex matrix ``(k, d)`` (one row per component)."""
    return representatives.features.copy()


def hull_containment_fraction(
    features: np.ndarray,
    representatives: RepresentativeTowers,
    *,
    relative_tolerance: float = 0.05,
) -> float:
    """Return the fraction of towers lying (approximately) inside the polygon.

    A tower counts as inside when its distance to the hull is below
    ``relative_tolerance`` times the polygon diameter — the paper's
    observation is that real towers are inside or *along the edges* of the
    polygon, with noise pushing some slightly outside.
    """
    feature_matrix = np.asarray(features, dtype=float)
    if feature_matrix.ndim != 2:
        raise ValueError(f"features must be 2-D, got shape {feature_matrix.shape}")
    vertices = polygon_vertices(representatives)
    diffs = vertices[:, None, :] - vertices[None, :, :]
    diameter = float(np.sqrt((diffs**2).sum(axis=2)).max())
    if diameter <= 0:
        raise ValueError("polygon vertices are degenerate (zero diameter)")
    tolerance = relative_tolerance * diameter
    _, distances = simplex_constrained_least_squares_batch(vertices, feature_matrix)
    return int(np.count_nonzero(distances <= tolerance)) / feature_matrix.shape[0]


def hull_distance_profile(
    features: np.ndarray, representatives: RepresentativeTowers
) -> np.ndarray:
    """Return the distance of every tower to the polygon (one value per row).

    All rows are solved by one call to the batched simplex kernel.
    """
    feature_matrix = np.asarray(features, dtype=float)
    if feature_matrix.ndim != 2:
        raise ValueError(f"features must be 2-D, got shape {feature_matrix.shape}")
    vertices = polygon_vertices(representatives)
    _, distances = simplex_constrained_least_squares_batch(vertices, feature_matrix)
    return distances
