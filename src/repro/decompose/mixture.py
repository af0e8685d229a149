"""Time-domain mixture reconstruction (Fig. 19 of the paper).

Once a tower's convex combination coefficients over the four primary
components are known, its traffic can be approximated in the *time domain*
as the same convex combination of the primary components' traffic patterns.
This module builds that per-component decomposition: for a target tower it
returns one traffic series per primary component (coefficient × component
pattern) plus the combined approximation, which is what Fig. 19 plots.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.decompose.convex import ConvexDecomposition
from repro.vectorize.normalize import NormalizationMethod, normalize_vector


@dataclass
class TimeDomainMixture:
    """Per-component time-domain decomposition of one tower's traffic."""

    tower_id: int
    component_labels: np.ndarray
    coefficients: np.ndarray
    component_series: np.ndarray
    combined: np.ndarray
    target: np.ndarray

    def __post_init__(self) -> None:
        self.component_labels = np.asarray(self.component_labels, dtype=int)
        self.coefficients = np.asarray(self.coefficients, dtype=float)
        self.component_series = np.asarray(self.component_series, dtype=float)
        self.combined = np.asarray(self.combined, dtype=float)
        self.target = np.asarray(self.target, dtype=float)
        if self.component_series.shape[0] != self.component_labels.shape[0]:
            raise ValueError("one series per component is required")
        if self.combined.shape != self.target.shape:
            raise ValueError("combined and target series must have the same length")

    def approximation_error(self) -> float:
        """Return the normalised RMS error between target and combined series."""
        scale = float(np.linalg.norm(self.target))
        if scale == 0:
            return 0.0
        return float(np.linalg.norm(self.target - self.combined)) / scale

    def component_share(self) -> dict[int, float]:
        """Return the coefficient of each component keyed by cluster label."""
        return {
            int(label): float(coefficient)
            for label, coefficient in zip(self.component_labels, self.coefficients)
        }


def mixture_time_series(
    decomposition: ConvexDecomposition,
    component_patterns: dict[int, np.ndarray],
    target_series: np.ndarray,
    *,
    normalization: NormalizationMethod = NormalizationMethod.MAX,
) -> TimeDomainMixture:
    """Build the time-domain mixture of a decomposed tower.

    Parameters
    ----------
    decomposition:
        One tower's decomposition, e.g. ``BatchDecomposition.decomposition_of``.
    component_patterns:
        Mapping from primary-component cluster label to that component's
        traffic pattern (e.g. the representative tower's series or the
        cluster centroid series).
    target_series:
        The decomposed tower's own traffic series.
    normalization:
        Normalisation applied to each pattern and to the target before
        mixing, so that the combination is shape-based (as in the paper's
        normalised traffic profiles).
    """
    target = normalize_vector(np.asarray(target_series, dtype=float), normalization)
    labels = decomposition.component_labels
    series_list = []
    for label in labels:
        if int(label) not in component_patterns:
            raise KeyError(f"no pattern series provided for component {int(label)}")
        pattern = normalize_vector(
            np.asarray(component_patterns[int(label)], dtype=float), normalization
        )
        if pattern.shape != target.shape:
            raise ValueError(
                "component pattern length does not match the target series length"
            )
        series_list.append(pattern)
    patterns = np.vstack(series_list)
    weighted = decomposition.coefficients[:, None] * patterns
    combined = weighted.sum(axis=0)
    return TimeDomainMixture(
        tower_id=decomposition.tower_id,
        component_labels=labels.copy(),
        coefficients=decomposition.coefficients.copy(),
        component_series=weighted,
        combined=combined,
        target=target,
    )
