"""Metric tuner: choose the stopping point of the pattern identifier.

The paper's tuner evaluates the Davies–Bouldin index over candidate cuts of
the dendrogram and stops the clustering at the cut minimising it (Fig. 6(a)
shows the DBI curve; the optimum is five clusters, reached with a distance
threshold of 16.33 on their data).  The tuner here sweeps a range of cluster
counts on a single fitted dendrogram — one cut at the largest count, then one
join per smaller count — and reports both the optimal number of clusters and
the corresponding distance threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.cluster.hierarchical import Dendrogram
from repro.cluster.validity import (
    calinski_harabasz_index,
    cluster_stats,
    davies_bouldin_from_stats,
    davies_bouldin_index,
    silhouette_score,
)

#: A validity index maps (vectors, labels) to a score.
ValidityIndex = Callable[[np.ndarray, np.ndarray], float]

_INDEX_REGISTRY: dict[str, tuple[ValidityIndex, bool]] = {
    # name -> (function, lower_is_better)
    "davies_bouldin": (davies_bouldin_index, True),
    "silhouette": (silhouette_score, False),
    "calinski_harabasz": (calinski_harabasz_index, False),
}


@dataclass(frozen=True)
class TuningCurve:
    """The validity-index curve over candidate numbers of clusters."""

    num_clusters: np.ndarray
    scores: np.ndarray
    thresholds: np.ndarray
    index_name: str
    lower_is_better: bool

    def best(self) -> tuple[int, float, float]:
        """Return ``(best_num_clusters, best_score, best_threshold)``."""
        if self.lower_is_better:
            position = int(np.argmin(self.scores))
        else:
            position = int(np.argmax(self.scores))
        return (
            int(self.num_clusters[position]),
            float(self.scores[position]),
            float(self.thresholds[position]),
        )

    def as_rows(self) -> list[dict[str, float]]:
        """Return the curve as a list of row dictionaries (for reports)."""
        return [
            {
                "num_clusters": int(k),
                "score": float(s),
                "threshold": float(t),
            }
            for k, s, t in zip(self.num_clusters, self.scores, self.thresholds)
        ]


class MetricTuner:
    """Select the optimal clustering cut by sweeping a validity index.

    Parameters
    ----------
    index:
        Name of the validity index: ``"davies_bouldin"`` (paper's choice),
        ``"silhouette"`` or ``"calinski_harabasz"``.
    min_clusters, max_clusters:
        Range of cluster counts to evaluate (inclusive).
    """

    def __init__(
        self,
        *,
        index: str = "davies_bouldin",
        min_clusters: int = 2,
        max_clusters: int = 12,
    ) -> None:
        if index not in _INDEX_REGISTRY:
            raise ValueError(
                f"unknown validity index {index!r}; choose from {sorted(_INDEX_REGISTRY)}"
            )
        if min_clusters < 2:
            raise ValueError(f"min_clusters must be at least 2, got {min_clusters}")
        if max_clusters < min_clusters:
            raise ValueError(
                f"max_clusters ({max_clusters}) must be >= min_clusters ({min_clusters})"
            )
        self.index_name = index
        self.min_clusters = min_clusters
        self.max_clusters = max_clusters
        #: Counters of the most recent sweep: ``clusters_scored``, the number
        #: of clusters whose statistics it computed (observability only —
        #: surfaced as a trace-span counter, never persisted).
        self.last_stats: dict = {}

    def _threshold_for(self, dendrogram: Dendrogram, num_clusters: int) -> float:
        """Return a distance threshold that yields ``num_clusters`` clusters.

        The threshold reported is the midpoint between the merge that brings
        the clustering down to ``num_clusters`` clusters and the next merge —
        i.e. any threshold in that open interval stops the clustering at the
        desired cut, mirroring how the paper reports "threshold 16.33".
        """
        distances = dendrogram.merge_distances
        n = dendrogram.num_observations
        if num_clusters >= n:
            return 0.0
        last_performed = n - num_clusters - 1  # index of the last merge performed
        lower = distances[last_performed]
        if last_performed + 1 < distances.size:
            upper = distances[last_performed + 1]
        else:
            upper = lower * 1.1 + 1e-9
        return float(0.5 * (lower + upper))

    def evaluate(self, vectors: np.ndarray, dendrogram: Dendrogram) -> TuningCurve:
        """Evaluate the validity index over the configured range of cuts."""
        return self._sweep(vectors, dendrogram)[0]

    def select(
        self, vectors: np.ndarray, dendrogram: Dendrogram
    ) -> tuple[np.ndarray, TuningCurve]:
        """Return ``(labels_at_best_cut, curve)`` for the given dendrogram."""
        curve, cuts = self._sweep(vectors, dendrogram)
        return cuts[curve.best()[0]], curve

    def _sweep(
        self, vectors: np.ndarray, dendrogram: Dendrogram
    ) -> tuple[TuningCurve, dict[int, np.ndarray]]:
        """Score every cut from ``max_clusters`` down to ``min_clusters``.

        Returns the curve and the labels of each cut.  The cuts come from
        one :meth:`Dendrogram.cuts` sweep, and the Davies–Bouldin index
        computes each dendrogram node's ``(centroid, S)`` once for the whole
        sweep — a cut at ``k`` shares all but one cluster with the cut at
        ``k + 1`` — with the same arithmetic as :func:`davies_bouldin_index`.
        """
        arr = np.asarray(vectors, dtype=float)
        function, lower_is_better = _INDEX_REGISTRY[self.index_name]
        max_k = min(self.max_clusters, dendrogram.num_observations - 1)
        if max_k < self.min_clusters:
            raise ValueError(
                "not enough observations to evaluate the requested cluster range"
            )
        ks = np.arange(self.min_clusters, max_k + 1)
        scores = np.zeros(ks.size)
        cuts: dict[int, np.ndarray] = {}
        node_stats: dict[int, tuple[np.ndarray, float]] = {}
        clusters_scored = 0
        for labels, nodes in dendrogram.cuts(max_k, self.min_clusters):
            k = nodes.size
            if self.index_name == "davies_bouldin":
                node_ids = nodes.tolist()
                for label, node in enumerate(node_ids):
                    if node not in node_stats:
                        node_stats[node] = cluster_stats(arr[labels == label])
                centroids = np.array([node_stats[node][0] for node in node_ids])
                scatter = np.array([node_stats[node][1] for node in node_ids])
                scores[k - self.min_clusters] = davies_bouldin_from_stats(
                    centroids, scatter
                )
            else:
                scores[k - self.min_clusters] = function(arr, labels)
                clusters_scored += k
            cuts[k] = labels
        self.last_stats = {"clusters_scored": clusters_scored + len(node_stats)}
        thresholds = np.array([self._threshold_for(dendrogram, int(k)) for k in ks])
        curve = TuningCurve(
            num_clusters=ks,
            scores=scores,
            thresholds=thresholds,
            index_name=self.index_name,
            lower_is_better=lower_is_better,
        )
        return curve, cuts
