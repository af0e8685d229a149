"""Cluster-validity indices — the metric tuner's objective functions.

The paper's metric tuner minimises the Davies–Bouldin index, which "measures
both the separation of clusters and cohesion within clusters".  The exact
formulation of Section 3.2 is implemented here, together with the silhouette
score and the Calinski–Harabasz index used by the ablation benchmark (A2).
"""

from __future__ import annotations

import numpy as np

from repro.cluster.distance import euclidean_distance_matrix, pairwise_distances
from repro.utils.stats import row_blocks


def _check_inputs(vectors: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    arr = np.asarray(vectors, dtype=float)
    lab = np.asarray(labels, dtype=int)
    if arr.ndim != 2:
        raise ValueError(f"vectors must be 2-D, got shape {arr.shape}")
    if lab.ndim != 1 or lab.shape[0] != arr.shape[0]:
        raise ValueError(
            f"labels must be 1-D with one entry per vector, got shape {lab.shape}"
        )
    return arr, lab


def cluster_stats(members: np.ndarray) -> tuple[np.ndarray, float]:
    """Return ``(centroid, S)`` of one cluster's member rows.

    ``S`` is the mean distance from the members to the centroid.  This is
    the one per-cluster computation behind :func:`within_cluster_distances`,
    :func:`davies_bouldin_index` and the metric tuner's sweep, so they agree
    bit for bit (its centroid is :func:`cluster_centroids`' arithmetic).
    The distances are ``np.linalg.norm``'s arithmetic taken a block of rows
    at a time, so ``members`` is the only array of the cluster's size.
    """
    centroid = members.mean(axis=0)
    distances = np.empty(members.shape[0])
    for block in row_blocks(*members.shape):
        offsets = members[block] - centroid
        offsets *= offsets
        np.sqrt(np.add.reduce(offsets, axis=1), out=distances[block])
        del offsets  # freed before the next block is taken
    return centroid, float(np.mean(distances))


def _all_cluster_stats(
    vectors: np.ndarray, labels: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(centroids, S)`` of every cluster, in ascending label order."""
    arr, lab = _check_inputs(vectors, labels)
    stats = [cluster_stats(arr[lab == label]) for label in np.unique(lab)]
    centroids = np.array([centroid for centroid, _ in stats]).reshape(len(stats), arr.shape[1])
    return centroids, np.array([scatter for _, scatter in stats], dtype=float)


def cluster_centroids(vectors: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Return the centroid of every cluster, indexed by label ``0 … k-1``."""
    arr, lab = _check_inputs(vectors, labels)
    unique = np.unique(lab)
    centroids = np.zeros((unique.size, arr.shape[1]))
    for index, label in enumerate(unique):
        centroids[index] = arr[lab == label].mean(axis=0)
    return centroids


def within_cluster_distances(vectors: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Return ``S_i``: the mean distance from points to their cluster centroid."""
    return _all_cluster_stats(vectors, labels)[1]


def davies_bouldin_index(vectors: np.ndarray, labels: np.ndarray) -> float:
    """Return the Davies–Bouldin index of a clustering (lower is better).

    Implements the paper's formulation::

        DBI = (1/R) Σ_i max_{j≠i} (S_i + S_j) / M_ij

    where ``S_i`` is the average distance of cluster ``i``'s members to its
    centroid and ``M_ij`` the distance between centroids ``i`` and ``j``.

    Raises
    ------
    ValueError
        If fewer than two clusters are present (the index is undefined).
    """
    centroids, scatter = _all_cluster_stats(vectors, labels)
    if scatter.size < 2:
        raise ValueError("Davies-Bouldin index requires at least two clusters")
    return davies_bouldin_from_stats(centroids, scatter)


def davies_bouldin_from_stats(centroids: np.ndarray, scatter: np.ndarray) -> float:
    """Return the Davies–Bouldin index of clusters given by ``(centroid, S)``.

    Row ``i`` of ``centroids`` and entry ``i`` of ``scatter`` describe
    cluster ``i`` (see :func:`cluster_stats`); two coinciding centroids give
    an infinite ratio.
    """
    separations = pairwise_distances(centroids, centroids)
    ratios = np.full(separations.shape, np.inf)
    np.divide(
        scatter[:, None] + scatter[None, :],
        separations,
        out=ratios,
        where=separations > 0,
    )
    np.fill_diagonal(ratios, 0.0)
    return float(np.mean(ratios.max(axis=1)))


def silhouette_score(
    vectors: np.ndarray,
    labels: np.ndarray,
    *,
    precomputed_distances: np.ndarray | None = None,
) -> float:
    """Return the mean silhouette coefficient of a clustering (higher is better).

    Singleton clusters contribute a silhouette of 0 for their single member,
    matching the standard convention.
    """
    arr, lab = _check_inputs(vectors, labels)
    unique = np.unique(lab)
    if unique.size < 2:
        raise ValueError("silhouette score requires at least two clusters")
    if precomputed_distances is not None:
        distances = np.asarray(precomputed_distances, dtype=float)
        if distances.shape != (arr.shape[0], arr.shape[0]):
            raise ValueError("precomputed_distances has the wrong shape")
    else:
        distances = euclidean_distance_matrix(arr)

    n = arr.shape[0]
    scores = np.zeros(n)
    members_by_label = {label: np.nonzero(lab == label)[0] for label in unique}
    for i in range(n):
        own = members_by_label[lab[i]]
        if own.size <= 1:
            scores[i] = 0.0
            continue
        a_i = distances[i, own[own != i]].mean()
        b_i = np.inf
        for label in unique:
            if label == lab[i]:
                continue
            other = members_by_label[label]
            b_i = min(b_i, distances[i, other].mean())
        denom = max(a_i, b_i)
        scores[i] = 0.0 if denom == 0 else (b_i - a_i) / denom
    return float(scores.mean())


def calinski_harabasz_index(vectors: np.ndarray, labels: np.ndarray) -> float:
    """Return the Calinski–Harabasz index of a clustering (higher is better)."""
    arr, lab = _check_inputs(vectors, labels)
    unique = np.unique(lab)
    n = arr.shape[0]
    k = unique.size
    if k < 2:
        raise ValueError("Calinski-Harabasz index requires at least two clusters")
    if n <= k:
        raise ValueError("need more observations than clusters")
    overall_mean = arr.mean(axis=0)
    centroids = cluster_centroids(arr, lab)
    between = 0.0
    within = 0.0
    for index, label in enumerate(unique):
        members = arr[lab == label]
        between += members.shape[0] * float(
            np.sum((centroids[index] - overall_mean) ** 2)
        )
        within += float(np.sum((members - centroids[index]) ** 2))
    if within == 0:
        return float("inf")
    return float((between / (k - 1)) / (within / (n - k)))


def centroid_distance_cdf(
    vectors: np.ndarray, labels: np.ndarray, *, num_points: int = 100
) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Return, per cluster, the empirical CDF of member→centroid distances.

    This regenerates the data behind Fig. 6(b) of the paper.  The result maps
    cluster label → ``(distance_grid, cdf_values)``.
    """
    arr, lab = _check_inputs(vectors, labels)
    centroids = cluster_centroids(arr, lab)
    unique = np.unique(lab)
    curves: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for index, label in enumerate(unique):
        members = arr[lab == label]
        dists = np.linalg.norm(members - centroids[index], axis=1)
        grid = np.linspace(0.0, float(dists.max()) if dists.size else 1.0, num_points)
        cdf = np.array([np.mean(dists <= g) for g in grid])
        curves[int(label)] = (grid, cdf)
    return curves
