"""Agglomerative (hierarchical) clustering — the paper's pattern identifier.

The algorithm starts with every traffic vector as its own cluster and
bottom-up merges the nearest two clusters until the stopping condition is
met.  Distances between clusters follow the configured linkage criterion
(average linkage in the paper), updated after every merge with the
Lance–Williams recurrence, and the full merge history is recorded as a
dendrogram so the same fit can be cut at any distance threshold or any
target number of clusters without re-running the clustering.

The merge history itself is computed by a pluggable backend (see
:mod:`repro.cluster.backends`): the O(n²) ``nn_chain`` nearest-neighbor-chain
engine, or the memory-bounded ``nn_chain_lowmem`` engine — on-the-fly
blocked distances, no pairwise matrix — picked automatically above 20k
observations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.cluster.backends import AUTO_BACKEND, ClusteringBackend, resolve_backend
from repro.cluster.linkage import Linkage


@dataclass(frozen=True)
class Dendrogram:
    """The complete merge history of one agglomerative clustering run.

    Attributes
    ----------
    merges:
        Array of shape ``(n - 1, 4)``; row ``m`` holds
        ``(cluster_a, cluster_b, distance, new_size)`` of the ``m``-th merge.
        Original observations are clusters ``0 … n-1``; the cluster created by
        merge ``m`` has id ``n + m`` — the same convention as SciPy's linkage
        matrix so results can be compared in tests.
    num_observations:
        Number of original observations ``n``.
    """

    merges: np.ndarray
    num_observations: int

    def __post_init__(self) -> None:
        merges = np.asarray(self.merges, dtype=float)
        expected_rows = max(self.num_observations - 1, 0)
        if merges.shape != (expected_rows, 4):
            raise ValueError(
                f"merges must have shape ({expected_rows}, 4), got {merges.shape}"
            )
        # Row m may only join clusters that exist before it (ids below
        # n + m), each at most once: the cuts follow parent pointers from
        # every observation to its root and rely on them forming a forest.
        children = merges[:, :2]
        limit = self.num_observations + np.arange(expected_rows)[:, None]
        if expected_rows and not (
            np.all((children >= 0) & (children < limit) & (children == np.floor(children)))
            and np.bincount(children.astype(np.int64).ravel()).max() == 1
        ):
            raise ValueError(
                "merges must join existing clusters (ids below n + row), each once"
            )
        object.__setattr__(self, "merges", merges)

    @property
    def merge_distances(self) -> np.ndarray:
        """Distances at which successive merges happened (non-decreasing for
        single/complete/average linkage on metric inputs in practice)."""
        return self.merges[:, 2].copy()

    def labels_at_num_clusters(self, num_clusters: int) -> np.ndarray:
        """Return cluster labels when exactly ``num_clusters`` remain.

        Labels are renumbered to ``0 … num_clusters-1`` ordered by the lowest
        observation index they contain (deterministic).
        """
        n = self.num_observations
        if not 1 <= num_clusters <= n:
            raise ValueError(
                f"num_clusters must be within [1, {n}], got {num_clusters}"
            )
        return self._cut(n - num_clusters)[0]

    def labels_at_distance(self, threshold: float) -> np.ndarray:
        """Return cluster labels after performing all merges below ``threshold``.

        This mirrors the paper's stop condition: clustering stops when the
        distance between the two nearest clusters exceeds the threshold.
        """
        distances = self.merges[:, 2]
        num_merges = int(np.searchsorted(distances, threshold, side="left"))
        # Merges are recorded in execution order; if distances are not
        # perfectly monotone (can happen with average linkage on degenerate
        # data), fall back to counting merges strictly below the threshold.
        if not np.all(np.diff(distances) >= -1e-12):
            num_merges = int(np.sum(distances < threshold))
        return self._cut(num_merges)[0]

    def cuts(
        self, max_clusters: int, min_clusters: int = 1
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield ``(labels, nodes)`` for every cut from ``max_clusters`` down
        to ``min_clusters`` clusters.

        ``labels`` equals :meth:`labels_at_num_clusters` at that cut and
        ``nodes[label]`` is the dendrogram node id of cluster ``label``
        (an observation index, or ``n + m`` for the cluster merge ``m``
        created).  Only the first cut is computed from the merge table;
        each later one joins the two clusters of the next merge, so a sweep
        costs one O(n) relabelling per cut.
        """
        n = self.num_observations
        if not 1 <= min_clusters <= max_clusters <= n:
            raise ValueError(
                f"need 1 <= min_clusters <= max_clusters <= {n}, "
                f"got {min_clusters} and {max_clusters}"
            )
        num_merges = n - max_clusters
        labels, nodes = self._cut(num_merges)
        while True:
            yield labels, nodes
            if nodes.size == min_clusters:
                return
            # The merged cluster's lowest observation is that of the lower
            # of its two labels, so it keeps that label; the higher label
            # disappears and every label above it moves down by one.
            a, b = self.merges[num_merges, :2]
            low, high = np.sort(np.flatnonzero((nodes == a) | (nodes == b)))
            labels = labels.copy()
            labels[labels == high] = low
            labels[labels > high] -= 1
            nodes = np.delete(nodes, high)
            nodes[low] = n + num_merges
            num_merges += 1

    def _cut(self, num_merges: int) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(labels, nodes)`` after the first ``num_merges`` merges."""
        n = self.num_observations
        created = n + np.arange(num_merges)
        parent = np.arange(n + num_merges)
        children = self.merges[:num_merges, :2].astype(np.int64)
        parent[children[:, 0]] = created
        parent[children[:, 1]] = created
        # Pointer doubling: after ⌈log2(depth)⌉ rounds every node points at
        # the root of its tree.
        while True:
            grandparent = parent[parent]
            if np.array_equal(grandparent, parent):
                break
            parent = grandparent
        roots, first, inverse = np.unique(
            parent[:n], return_index=True, return_inverse=True
        )
        order = np.argsort(first)
        rank = np.empty(order.size, dtype=int)
        rank[order] = np.arange(order.size)
        return rank[inverse], roots[order]


@dataclass
class ClusteringResult:
    """Labels plus provenance of one clustering cut."""

    labels: np.ndarray
    dendrogram: Dendrogram
    linkage: Linkage
    threshold: float | None = None
    extras: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.labels = np.asarray(self.labels, dtype=int)

    @property
    def num_clusters(self) -> int:
        """Number of distinct clusters in the cut."""
        return int(np.unique(self.labels).size)

    def cluster_sizes(self) -> np.ndarray:
        """Return the size of each cluster (indexed by label).

        Raises
        ------
        ValueError
            If the cut holds no labels at all (nothing was clustered).
        """
        if self.labels.size == 0:
            raise ValueError("cannot compute cluster sizes of an empty labelling")
        return np.bincount(self.labels, minlength=self.num_clusters)

    def members_of(self, label: int) -> np.ndarray:
        """Return the row indices belonging to cluster ``label``."""
        return np.nonzero(self.labels == label)[0]

    def percentages(self) -> np.ndarray:
        """Return the percentage of points in each cluster (Table 1).

        Raises
        ------
        ValueError
            If the cut holds no labels at all — percentages would otherwise
            be an undefined 0/0 division.
        """
        if self.labels.size == 0:
            raise ValueError("cannot compute percentages of an empty labelling")
        sizes = self.cluster_sizes().astype(float)
        return 100.0 * sizes / sizes.sum()


class AgglomerativeClustering:
    """Bottom-up hierarchical clustering with Lance–Williams updates.

    Parameters
    ----------
    linkage:
        Linkage criterion; the paper uses :attr:`Linkage.AVERAGE`.
    backend:
        Merge-history engine: ``"auto"`` (default — the O(n²)
        nearest-neighbor-chain engine, upgraded to the memory-bounded
        ``nn_chain_lowmem`` engine above
        :data:`~repro.cluster.backends.AUTO_LOWMEM_THRESHOLD` observations
        when fitting from vectors), ``"nn_chain"``, ``"nn_chain_lowmem"``,
        or a
        :class:`~repro.cluster.backends.ClusteringBackend` instance.
        Backends produce identical cuts on tie-free distances and differ
        only in speed and memory; exact ties may be broken differently.
    tile_size:
        Blocked-scan tile edge of the memory-bounded backend (ignored by
        the others); ``None`` keeps the backend default.  Merge heights
        can differ by a few ulps between tile sizes; merge pairs, sizes and
        cuts differ only where two candidate distances lie within that
        rounding.
    """

    def __init__(
        self,
        *,
        linkage: Linkage = Linkage.AVERAGE,
        backend: str | ClusteringBackend = AUTO_BACKEND,
        tile_size: int | None = None,
    ) -> None:
        self.linkage = linkage
        self.tile_size = tile_size
        self._backend_spec = backend
        # Eager name/linkage validation; ``fit`` re-resolves "auto" once the
        # observation count is known so large fits get the lowmem engine.
        self.backend = resolve_backend(backend, linkage, tile_size=tile_size)
        #: Counters of the most recent :meth:`fit`: the resolved backend's
        #: name plus its ``last_stats`` (observability only — surfaced as
        #: trace-span counters, never persisted).
        self.last_fit_stats: dict = {}

    def fit(
        self,
        vectors: np.ndarray,
        *,
        precomputed_distances: np.ndarray | None = None,
    ) -> Dendrogram:
        """Compute the full dendrogram of ``vectors``.

        From vectors, the backend gets the feature matrix: ``nn_chain``
        builds the square distance matrix and agglomerates on it in place
        (one ``(n, n)`` float64 array, 737 MB at 9,600 towers), while
        ``nn_chain_lowmem`` never builds one.

        Parameters
        ----------
        vectors:
            Array of shape ``(n, d)`` — ignored when
            ``precomputed_distances`` is given (pass a symmetric ``(n, n)``
            distance matrix instead, e.g. to cluster with a non-Euclidean
            metric; the backend runs on a copy).

        Raises
        ------
        ValueError
            If the input is malformed, holds a NaN or infinite value, or
            the precomputed matrix holds a negative distance (the message
            names the first such row) or is not symmetric.
        """
        if precomputed_distances is not None:
            distances = np.asarray(precomputed_distances, dtype=float)
            if distances.ndim != 2 or distances.shape[0] != distances.shape[1]:
                raise ValueError("precomputed_distances must be a square matrix")
            _require_finite_rows(distances, "precomputed_distances")
            negative_rows = (distances < 0).any(axis=1)
            if negative_rows.any():
                raise ValueError(
                    f"precomputed_distances row {int(np.argmax(negative_rows))} "
                    "holds a negative distance"
                )
            symmetric_rows = (distances == distances.T).all(axis=1)
            if not symmetric_rows.all():
                raise ValueError(
                    f"precomputed_distances row {int(np.argmin(symmetric_rows))} "
                    "differs from its column; the matrix must be symmetric"
                )
            n = distances.shape[0]
            if n == 1:
                self.last_fit_stats = {"backend": self.backend.name, "merges": 0}
                return Dendrogram(merges=np.empty((0, 4)), num_observations=1)
            merges = self.backend.compute_merges_from_square(
                distances, self.linkage
            )
            self.last_fit_stats = {
                "backend": self.backend.name,
                **self.backend.last_stats,
            }
            return Dendrogram(merges=merges, num_observations=n)

        arr = np.asarray(vectors, dtype=float)
        if arr.ndim != 2:
            raise ValueError(f"vectors must be 2-D, got shape {arr.shape}")
        if arr.shape[0] < 1:
            raise ValueError("need at least one observation")
        _require_finite_rows(arr, "vectors")
        n = arr.shape[0]
        if n == 1:
            self.last_fit_stats = {"backend": self.backend.name, "merges": 0}
            return Dendrogram(merges=np.empty((0, 4)), num_observations=1)

        backend = resolve_backend(
            self._backend_spec,
            self.linkage,
            num_observations=n,
            tile_size=self.tile_size,
        )
        merges = backend.compute_merges_from_features(arr, self.linkage)
        self.last_fit_stats = {"backend": backend.name, **backend.last_stats}
        return Dendrogram(merges=merges, num_observations=n)

    def fit_predict(
        self,
        vectors: np.ndarray,
        *,
        num_clusters: int | None = None,
        distance_threshold: float | None = None,
        precomputed_distances: np.ndarray | None = None,
    ) -> ClusteringResult:
        """Fit and cut in one call.

        Exactly one of ``num_clusters`` and ``distance_threshold`` must be
        provided.
        """
        if (num_clusters is None) == (distance_threshold is None):
            raise ValueError(
                "provide exactly one of num_clusters and distance_threshold"
            )
        dendrogram = self.fit(vectors, precomputed_distances=precomputed_distances)
        if num_clusters is not None:
            labels = dendrogram.labels_at_num_clusters(num_clusters)
            threshold = None
        else:
            labels = dendrogram.labels_at_distance(float(distance_threshold))
            threshold = float(distance_threshold)
        return ClusteringResult(
            labels=labels,
            dendrogram=dendrogram,
            linkage=self.linkage,
            threshold=threshold,
        )


def _require_finite_rows(values: np.ndarray, what: str) -> None:
    """Raise a one-line ``ValueError`` naming the first row holding NaN/inf.

    The backends need finite distances: ``nn_chain`` marks retired clusters
    with +inf, and a NaN would make every nearest-neighbour scan ambiguous.
    """
    finite_rows = np.isfinite(values).all(axis=1)
    if not finite_rows.all():
        row = int(np.argmin(finite_rows))
        raise ValueError(f"{what} row {row} holds a NaN or infinite value")


def cut_by_num_clusters(dendrogram: Dendrogram, num_clusters: int) -> np.ndarray:
    """Functional wrapper around :meth:`Dendrogram.labels_at_num_clusters`."""
    return dendrogram.labels_at_num_clusters(num_clusters)


def cut_by_distance(dendrogram: Dendrogram, threshold: float) -> np.ndarray:
    """Functional wrapper around :meth:`Dendrogram.labels_at_distance`."""
    return dendrogram.labels_at_distance(threshold)
