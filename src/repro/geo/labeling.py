"""Automatic cluster → urban-functional-region labelling.

The paper labels each traffic-pattern cluster with an urban functional
region by combining the geographic distribution of its towers with the POI
composition around its densest locations (Section 3.3.1).  The automated
version implemented here scores every (cluster, region) assignment using the
cluster's averaged normalised POI profile and solves the resulting
assignment problem exactly, with the special rule the paper also applies: the
cluster whose POI profile is *least* skewed towards any single category (and
whose towers are spread across the whole city) is the comprehensive one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.geo.poi_profile import POIProfile, normalized_poi_by_cluster
from repro.synth.poi import POICategory
from repro.synth.regions import RegionType

#: POI category associated with each pure region type.
_POI_FOR_REGION = {
    RegionType.RESIDENT: POICategory.RESIDENT,
    RegionType.TRANSPORT: POICategory.TRANSPORT,
    RegionType.OFFICE: POICategory.OFFICE,
    RegionType.ENTERTAINMENT: POICategory.ENTERTAINMENT,
}


@dataclass
class ClusterLabeling:
    """Assignment of urban functional regions to traffic-pattern clusters."""

    cluster_labels: np.ndarray
    region_types: list[RegionType]
    scores: np.ndarray

    def __post_init__(self) -> None:
        self.cluster_labels = np.asarray(self.cluster_labels, dtype=int)
        self.scores = np.asarray(self.scores, dtype=float)
        if len(self.region_types) != self.cluster_labels.shape[0]:
            raise ValueError("one region type per cluster label is required")

    def region_of(self, cluster_label: int) -> RegionType:
        """Return the functional region assigned to a cluster."""
        matches = np.nonzero(self.cluster_labels == cluster_label)[0]
        if matches.size == 0:
            raise KeyError(f"cluster {cluster_label} has no label")
        return self.region_types[int(matches[0])]

    def cluster_of(self, region_type: RegionType) -> int:
        """Return the cluster assigned to a functional region."""
        for label, region in zip(self.cluster_labels, self.region_types):
            if region is region_type:
                return int(label)
        raise KeyError(f"no cluster labelled {region_type}")

    def as_dict(self) -> dict[int, RegionType]:
        """Return ``{cluster_label: region_type}``."""
        return {
            int(label): region
            for label, region in zip(self.cluster_labels, self.region_types)
        }

    def per_tower_regions(self, labels: np.ndarray) -> list[RegionType]:
        """Map per-tower cluster labels to functional regions."""
        mapping = self.as_dict()
        return [mapping[int(label)] for label in np.asarray(labels, dtype=int)]


def _skewness_score(row: np.ndarray) -> float:
    """Return how skewed a normalised POI row is towards its dominant category.

    Comprehensive areas have low skew (no single dominant function); pure
    areas have high skew.
    """
    total = row.sum()
    if total <= 0:
        return 0.0
    shares = row / total
    return float(shares.max() - shares.mean())


def assign_regions(scores: np.ndarray) -> list[int | None]:
    """Return the region column each cluster row of ``scores`` takes, or ``None``.

    ``scores`` is a ``(clusters, regions)`` matrix with few region columns
    (the four pure regions).  Each cluster takes at most one region and each
    region goes to at most one cluster; exactly ``min(clusters, regions)``
    pairs are made, with the largest possible total score.  The search is an
    exact dynamic program over the subsets of regions already taken (bit
    masks): ``best[i][mask]`` is the largest total that clusters ``i…`` can
    add once the regions in ``mask`` are taken, which costs
    ``clusters × 2^regions × regions`` steps.

    Ties: when several assignments reach the best total, cluster 0 takes the
    first column that still reaches it (a region before none), then cluster 1
    likewise, and so on.  With the pure regions in ``RegionType`` order, a
    tie goes to the lower cluster label, and within one cluster to resident,
    transport, office, entertainment in that order.  Totals are compared
    exactly, as floats summed from the last cluster back.

    Raises
    ------
    ValueError
        If a score is not finite.
    """
    matrix = np.asarray(scores, dtype=float)
    if not np.isfinite(matrix).all():
        raise ValueError("assignment scores must be finite")
    num_clusters, num_regions = matrix.shape
    rows = matrix.tolist()
    masks = range(1 << num_regions)
    target = min(num_clusters, num_regions)
    # best[i][mask]; -inf where clusters i… cannot end with ``target`` taken.
    best = [[-math.inf] * len(masks) for _ in range(num_clusters)]
    best.append([0.0 if mask.bit_count() == target else -math.inf for mask in masks])
    for i in reversed(range(num_clusters)):
        after = best[i + 1]
        for mask in masks:
            best[i][mask] = max(
                [after[mask]]
                + [
                    rows[i][j] + after[mask | 1 << j]
                    for j in range(num_regions)
                    if not mask >> j & 1
                ]
            )
    choice: list[int | None] = []
    mask = 0
    for i, row in enumerate(rows):
        taken = next(
            (
                j
                for j in range(num_regions)
                if not mask >> j & 1 and row[j] + best[i + 1][mask | 1 << j] == best[i][mask]
            ),
            None,
        )
        if taken is not None:
            mask |= 1 << taken
        choice.append(taken)
    return choice


def label_clusters(
    profile: POIProfile,
    labels: np.ndarray,
) -> ClusterLabeling:
    """Label clusters with urban functional regions from their POI profiles.

    Parameters
    ----------
    profile:
        Per-tower POI profile.
    labels:
        Per-tower cluster labels (``0 … k-1``).

    Notes
    -----
    The four pure regions (resident, transport, office, entertainment) are
    assigned to clusters by :func:`assign_regions`, an exact search that
    maximises the total share of the matching POI category in each assigned
    cluster's averaged normalised POI row (ties go to the lower cluster
    label).  Any cluster left without a pure region — the fifth cluster when
    the paper's five patterns are found, or every extra cluster for finer
    cuts — is labelled comprehensive.  This global assignment is robust to
    the relative skew of individual clusters, which a greedy per-cluster rule
    is not.
    """
    label_array = np.asarray(labels, dtype=int)
    unique = np.unique(label_array)
    table = normalized_poi_by_cluster(profile, label_array)
    num_clusters = unique.size

    pure_regions = list(_POI_FOR_REGION)
    # Score matrix: cluster row i × pure region j → that cluster's share of
    # the region's matching POI category.
    score_matrix = np.zeros((num_clusters, len(pure_regions)))
    for i in range(num_clusters):
        row_values = table[i]
        total = row_values.sum()
        shares = row_values / total if total > 0 else row_values
        for j, region in enumerate(pure_regions):
            score_matrix[i, j] = shares[_POI_FOR_REGION[region].index]

    # Each pure region is claimed by exactly one cluster (when at least four
    # clusters exist); leftover clusters are comprehensive.
    region_types: list[RegionType] = []
    scores = np.zeros(num_clusters)
    for i, j in enumerate(assign_regions(score_matrix)):
        if j is None:
            region_types.append(RegionType.COMPREHENSIVE)
            scores[i] = _skewness_score(table[i])
        else:
            region_types.append(pure_regions[j])
            scores[i] = score_matrix[i, j]
    return ClusterLabeling(
        cluster_labels=unique,
        region_types=region_types,
        scores=scores,
    )


def label_accuracy(
    labeling: ClusterLabeling,
    cluster_labels: np.ndarray,
    ground_truth: np.ndarray,
) -> float:
    """Return the fraction of towers whose assigned region matches ground truth.

    ``ground_truth`` holds the true region index per tower
    (:meth:`repro.synth.regions.RegionType.index`).
    """
    cluster_array = np.asarray(cluster_labels, dtype=int)
    truth = np.asarray(ground_truth, dtype=int)
    if cluster_array.shape != truth.shape:
        raise ValueError("cluster_labels and ground_truth must align")
    predicted = np.array(
        [region.index for region in labeling.per_tower_regions(cluster_array)], dtype=int
    )
    return float(np.mean(predicted == truth))
