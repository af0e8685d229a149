"""Selection of the most representative tower of each cluster.

Section 5.2 of the paper argues that the most representative tower of a
cluster is *not* its centroid but the non-noise point farthest from the
other clusters: points near the separating hyperplanes sit in mixed-function
areas, while points far from every other cluster sit in single-function
areas.  The selection implemented here follows the paper's recipe exactly:

1. compute, for every tower, its distance to the nearest tower of any other
   cluster (the larger, the more "purely" it belongs to its own cluster);
2. discard noise points using a local-density criterion (the number of
   towers of the same cluster within a fixed feature-space radius);
3. pick, per cluster, the non-noise tower maximising the distance of step 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.distance import euclidean_distance_matrix
from repro.utils.stats import row_blocks


@dataclass
class RepresentativeTowers:
    """The representative tower of each cluster plus its feature vector."""

    cluster_labels: np.ndarray
    row_indices: np.ndarray
    tower_ids: np.ndarray
    features: np.ndarray

    def __post_init__(self) -> None:
        self.cluster_labels = np.asarray(self.cluster_labels, dtype=int)
        self.row_indices = np.asarray(self.row_indices, dtype=int)
        self.tower_ids = np.asarray(self.tower_ids, dtype=int)
        self.features = np.asarray(self.features, dtype=float)
        sizes = {
            self.cluster_labels.shape[0],
            self.row_indices.shape[0],
            self.tower_ids.shape[0],
            self.features.shape[0],
        }
        if len(sizes) != 1:
            raise ValueError("all representative arrays must have the same length")

    @property
    def num_clusters(self) -> int:
        """Number of clusters represented."""
        return int(self.cluster_labels.shape[0])

    def feature_of(self, cluster_label: int) -> np.ndarray:
        """Return the feature vector of the representative of a cluster."""
        matches = np.nonzero(self.cluster_labels == cluster_label)[0]
        if matches.size == 0:
            raise KeyError(f"no representative for cluster {cluster_label}")
        return self.features[int(matches[0])]

    def vertex_matrix(self, order: np.ndarray | None = None) -> np.ndarray:
        """Return the representative features stacked as a ``(k, d)`` matrix.

        ``order`` optionally reorders rows by cluster label.
        """
        if order is None:
            return self.features.copy()
        return np.vstack([self.feature_of(int(label)) for label in order])


def select_representative_towers(
    features: np.ndarray,
    labels: np.ndarray,
    tower_ids: np.ndarray,
    *,
    clusters: np.ndarray | None = None,
    density_radius: float | None = None,
    min_neighbors: int = 3,
) -> RepresentativeTowers:
    """Select the most representative tower of each cluster.

    Parameters
    ----------
    features:
        Feature matrix of shape ``(n, d)`` (typically the frequency features
        ``(A_day, P_day, A_halfday)``).
    labels:
        Cluster label of each tower.
    tower_ids:
        Tower identifier of each row.
    clusters:
        Which cluster labels to select representatives for; all labels by
        default.  The paper selects the four *pure* clusters (leaving out the
        comprehensive one) as the primary components.
    density_radius:
        Radius of the density filter in feature space; defaults to 20% of the
        median pairwise distance.
    min_neighbors:
        Minimum number of same-cluster neighbours within ``density_radius``
        for a tower to be considered a non-noise candidate.  If no tower in a
        cluster satisfies the filter, the filter is relaxed for that cluster.
    """
    feature_matrix = np.asarray(features, dtype=float)
    label_array = np.asarray(labels, dtype=int)
    ids = np.asarray(tower_ids, dtype=int)
    if feature_matrix.ndim != 2:
        raise ValueError(f"features must be 2-D, got shape {feature_matrix.shape}")
    if label_array.shape[0] != feature_matrix.shape[0]:
        raise ValueError("labels must have one entry per feature row")
    if ids.shape[0] != feature_matrix.shape[0]:
        raise ValueError("tower_ids must have one entry per feature row")

    distances = euclidean_distance_matrix(feature_matrix)
    if density_radius is None:
        density_radius = 0.2 * _median_pairwise(distances) if len(distances) > 1 else 1.0

    target_clusters = np.unique(label_array) if clusters is None else np.asarray(clusters)

    chosen_rows: list[int] = []
    chosen_labels: list[int] = []
    for cluster_label in target_clusters:
        in_cluster = label_array == cluster_label
        members = np.flatnonzero(in_cluster)
        if members.size == 0:
            raise ValueError(f"cluster {cluster_label} has no members")

        if members.size == label_array.size:
            # Degenerate single-cluster case: fall back to the centroid-nearest point.
            centroid = feature_matrix[members].mean(axis=0)
            offsets = np.linalg.norm(feature_matrix[members] - centroid, axis=1)
            chosen_rows.append(int(members[np.argmin(offsets)]))
            chosen_labels.append(int(cluster_label))
            continue

        # Per member: same-cluster towers within the radius (itself
        # excluded), and the distance to the nearest tower of another
        # cluster, read from the members' rows a block at a time.
        separation = np.empty(members.size)
        neighbor_counts = np.empty(members.size, dtype=np.int64)
        for block in row_blocks(members.size, len(distances)):
            rows = distances[members[block]]
            within = (rows <= density_radius) & in_cluster
            neighbor_counts[block] = within.sum(axis=1) - 1
            rows[:, in_cluster] = np.inf
            separation[block] = rows.min(axis=1)

        candidates = members[neighbor_counts >= min_neighbors]
        candidate_separation = separation[neighbor_counts >= min_neighbors]
        if candidates.size == 0:
            candidates = members
            candidate_separation = separation
        chosen_rows.append(int(candidates[np.argmax(candidate_separation)]))
        chosen_labels.append(int(cluster_label))

    rows = np.array(chosen_rows, dtype=int)
    return RepresentativeTowers(
        cluster_labels=np.array(chosen_labels, dtype=int),
        row_indices=rows,
        tower_ids=ids[rows],
        features=feature_matrix[rows],
    )


def _median_pairwise(distances: np.ndarray) -> float:
    """Return the median of the upper triangle of a symmetric distance matrix.

    The ``n(n-1)/2`` pairwise distances are gathered row by row into one
    buffer, which the median then partitions in place: no index arrays and
    no second copy.
    """
    upper = np.concatenate([distances[row, row + 1 :] for row in range(len(distances) - 1)])
    return float(np.median(upper, overwrite_input=True))
