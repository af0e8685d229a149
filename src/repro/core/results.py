"""Result containers of the end-to-end traffic-pattern model."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

# Annotations only: a server imports this module for percentage_table
# without loading the fit stack.
if TYPE_CHECKING:
    from repro.cluster.hierarchical import ClusteringResult
    from repro.cluster.tuner import TuningCurve
    from repro.decompose.representative import RepresentativeTowers
    from repro.geo.labeling import ClusterLabeling
    from repro.geo.poi_profile import POIProfile
    from repro.spectral.components import PrincipalComponents
    from repro.spectral.features import FrequencyFeatures
    from repro.synth.regions import RegionType
    from repro.utils.timeutils import TimeWindow
    from repro.vectorize.vectorizer import VectorizedTraffic


def percentage_table(
    labels: np.ndarray, region_of_cluster: Callable[[int], RegionType | None]
) -> list[dict[str, object]]:
    """Return Table 1 of a labelling: cluster index, functional region, percentage.

    ``region_of_cluster`` maps a cluster label to its region (``None`` when
    the model is unlabelled).  :meth:`ModelResult.percentage_table` and a
    :class:`~repro.io.server.ModelServer` both build the table here.
    """
    num_clusters = int(np.unique(labels).size)
    sizes = np.bincount(labels, minlength=num_clusters).astype(float)
    percentages = 100.0 * sizes / sizes.sum()
    rows = []
    for cluster_label in range(num_clusters):
        region = region_of_cluster(cluster_label)
        rows.append(
            {
                "cluster": cluster_label + 1,
                "region": region.value if region else "unlabelled",
                "percentage": round(float(percentages[cluster_label]), 2),
            }
        )
    return rows


@dataclass
class ClusterSummary:
    """Human-readable summary of one identified traffic pattern."""

    cluster_label: int
    region: RegionType | None
    num_towers: int
    percentage: float
    centroid_profile: np.ndarray

    def __post_init__(self) -> None:
        self.centroid_profile = np.asarray(self.centroid_profile, dtype=float)


@dataclass
class ModelResult:
    """Everything produced by one :meth:`TrafficPatternModel.fit` call."""

    window: TimeWindow
    vectorized: VectorizedTraffic
    clustering: ClusteringResult
    tuning_curve: TuningCurve | None
    labeling: ClusterLabeling | None
    poi_profile: POIProfile | None
    components: PrincipalComponents
    frequency_features: FrequencyFeatures
    representatives: RepresentativeTowers | None
    extras: dict = field(default_factory=dict)

    @property
    def labels(self) -> np.ndarray:
        """Per-tower cluster labels."""
        return self.clustering.labels

    @property
    def tower_ids(self) -> np.ndarray:
        """Tower identifier per row (aligned with :attr:`labels`)."""
        return self.vectorized.tower_ids

    @property
    def num_clusters(self) -> int:
        """Number of identified patterns."""
        return self.clustering.num_clusters

    def cluster_members(self, cluster_label: int) -> np.ndarray:
        """Return the row indices of a cluster."""
        return self.clustering.members_of(cluster_label)

    def cluster_aggregate(self, cluster_label: int) -> np.ndarray:
        """Return the aggregate raw traffic series of a cluster."""
        members = self.cluster_members(cluster_label)
        return self.vectorized.raw.traffic[members].sum(axis=0)

    def cluster_centroid(self, cluster_label: int) -> np.ndarray:
        """Return the centroid of a cluster in normalised-vector space."""
        members = self.cluster_members(cluster_label)
        return self.vectorized.vectors[members].mean(axis=0)

    def region_of_cluster(self, cluster_label: int) -> RegionType | None:
        """Return the functional region assigned to a cluster (if labelled)."""
        if self.labeling is None:
            return None
        return self.labeling.region_of(cluster_label)

    def cluster_of_region(self, region: RegionType) -> int:
        """Return the cluster labelled with ``region``.

        Raises
        ------
        KeyError
            If no labelling is available or the region was not assigned.
        """
        if self.labeling is None:
            raise KeyError("the model was fitted without geographic labelling")
        return self.labeling.cluster_of(region)

    def summaries(self) -> list[ClusterSummary]:
        """Return one :class:`ClusterSummary` per identified pattern."""
        percentages = self.clustering.percentages()
        sizes = self.clustering.cluster_sizes()
        summaries = []
        for cluster_label in range(self.num_clusters):
            summaries.append(
                ClusterSummary(
                    cluster_label=cluster_label,
                    region=self.region_of_cluster(cluster_label),
                    num_towers=int(sizes[cluster_label]),
                    percentage=float(percentages[cluster_label]),
                    centroid_profile=self.cluster_centroid(cluster_label),
                )
            )
        return summaries

    def percentage_table(self) -> list[dict[str, object]]:
        """Return Table 1 (cluster index, functional region, percentage)."""
        return percentage_table(self.labels, self.region_of_cluster)
