"""Pattern identifier and metric tuner (Section 3.2 of the paper).

The pattern identifier is an average-linkage agglomerative (hierarchical)
clustering over the normalised traffic vectors using Euclidean distances;
the metric tuner selects the stopping threshold (equivalently the number of
clusters) by minimising the Davies–Bouldin index.  Everything is implemented
from scratch on numpy/scipy primitives: distance matrices, Lance–Williams
linkage updates, dendrogram cutting, and three cluster-validity indices.
"""

from repro.cluster.backends import (
    BACKEND_CHOICES,
    BACKEND_NAMES,
    ClusteringBackend,
    NNChainBackend,
    get_backend,
    resolve_backend,
)
from repro.cluster.distance import (
    condensed_from_square,
    condensed_index,
    condensed_indices,
    euclidean_distance_matrix,
    pairwise_distances,
    square_from_condensed,
)
from repro.cluster.hierarchical import (
    AgglomerativeClustering,
    ClusteringResult,
    Dendrogram,
    cut_by_distance,
    cut_by_num_clusters,
)
from repro.cluster.linkage import Linkage
from repro.cluster.tuner import MetricTuner, TuningCurve
from repro.cluster.validity import (
    calinski_harabasz_index,
    cluster_centroids,
    davies_bouldin_index,
    silhouette_score,
    within_cluster_distances,
)

__all__ = [
    "AgglomerativeClustering",
    "BACKEND_CHOICES",
    "BACKEND_NAMES",
    "ClusteringBackend",
    "ClusteringResult",
    "Dendrogram",
    "Linkage",
    "MetricTuner",
    "NNChainBackend",
    "TuningCurve",
    "calinski_harabasz_index",
    "cluster_centroids",
    "condensed_from_square",
    "condensed_index",
    "condensed_indices",
    "cut_by_distance",
    "cut_by_num_clusters",
    "davies_bouldin_index",
    "euclidean_distance_matrix",
    "get_backend",
    "pairwise_distances",
    "resolve_backend",
    "silhouette_score",
    "square_from_condensed",
    "within_cluster_distances",
]
