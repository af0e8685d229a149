"""Pattern identifier and metric tuner (Section 3.2 of the paper).

The pattern identifier is an average-linkage agglomerative (hierarchical)
clustering over the normalised traffic vectors using Euclidean distances;
the metric tuner selects the stopping threshold (equivalently the number of
clusters) by minimising the Davies–Bouldin index.  Everything is implemented
from scratch on numpy primitives: distance matrices, Lance–Williams
linkage updates, dendrogram cutting, and three cluster-validity indices.
"""

from repro.utils.lazy import lazy_exports

_EXPORTS = {
    "backends": (
        "BACKEND_CHOICES",
        "BACKEND_NAMES",
        "ClusteringBackend",
        "NNChainBackend",
        "get_backend",
        "resolve_backend",
    ),
    "distance": ("euclidean_distance_matrix", "pairwise_distances"),
    "hierarchical": (
        "AgglomerativeClustering",
        "ClusteringResult",
        "Dendrogram",
        "cut_by_distance",
        "cut_by_num_clusters",
    ),
    "linkage": ("Linkage",),
    "tuner": ("MetricTuner", "TuningCurve"),
    "validity": (
        "calinski_harabasz_index",
        "cluster_centroids",
        "davies_bouldin_index",
        "silhouette_score",
        "within_cluster_distances",
    ),
}

__getattr__ = lazy_exports(__name__, _EXPORTS)

__all__ = sorted(name for names in _EXPORTS.values() for name in names)
