"""Tests for repro.cluster.validity and repro.cluster.tuner."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.hierarchical import AgglomerativeClustering
from repro.cluster.linkage import Linkage
from repro.cluster.tuner import MetricTuner, TuningCurve
from repro.cluster.validity import (
    calinski_harabasz_index,
    centroid_distance_cdf,
    cluster_centroids,
    cluster_stats,
    davies_bouldin_index,
    silhouette_score,
    within_cluster_distances,
)


@pytest.fixture(scope="module")
def blobs():
    rng = np.random.default_rng(17)
    centers = [(0, 0), (10, 0), (0, 10), (10, 10)]
    data = np.vstack(
        [rng.normal(loc=c, scale=0.4, size=(20, 2)) for c in centers]
    )
    labels = np.repeat(np.arange(4), 20)
    return data, labels


class TestCentroidsAndScatter:
    def test_centroids_close_to_true_centers(self, blobs):
        data, labels = blobs
        centroids = cluster_centroids(data, labels)
        assert centroids.shape == (4, 2)
        assert np.allclose(centroids[0], [0, 0], atol=0.5)
        assert np.allclose(centroids[3], [10, 10], atol=0.5)

    def test_within_cluster_distances_small_for_tight_blobs(self, blobs):
        data, labels = blobs
        scatter = within_cluster_distances(data, labels)
        assert np.all(scatter < 1.5)

    @pytest.mark.parametrize("shape", [(1, 3), (40, 1), (700, 1008), (3, 40000)], ids=str)
    def test_scatter_bits_equal_the_whole_cluster_norm(self, shape):
        # Row blocks or not, each member's distance is the same reduction.
        members = np.random.default_rng(5).lognormal(size=shape)
        centroid, scatter = cluster_stats(members)
        assert centroid.tobytes() == members.mean(axis=0).tobytes()
        assert scatter == float(np.mean(np.linalg.norm(members - centroid, axis=1)))

    def test_input_validation(self):
        with pytest.raises(ValueError):
            cluster_centroids(np.ones(5), np.zeros(5, dtype=int))
        with pytest.raises(ValueError):
            cluster_centroids(np.ones((5, 2)), np.zeros(4, dtype=int))


class TestDaviesBouldin:
    def test_good_clustering_has_low_dbi(self, blobs):
        data, labels = blobs
        assert davies_bouldin_index(data, labels) < 0.3

    def test_random_labels_have_higher_dbi(self, blobs):
        data, labels = blobs
        rng = np.random.default_rng(0)
        shuffled = rng.permutation(labels)
        assert davies_bouldin_index(data, shuffled) > davies_bouldin_index(data, labels)

    def test_correct_k_minimises_dbi(self, blobs):
        data, _ = blobs
        dendrogram = AgglomerativeClustering().fit(data)
        scores = {
            k: davies_bouldin_index(data, dendrogram.labels_at_num_clusters(k))
            for k in range(2, 8)
        }
        assert min(scores, key=scores.get) == 4

    def test_single_cluster_rejected(self, blobs):
        data, _ = blobs
        with pytest.raises(ValueError):
            davies_bouldin_index(data, np.zeros(data.shape[0], dtype=int))

    def test_matches_manual_computation_on_tiny_example(self):
        data = np.array([[0.0, 0.0], [0.0, 2.0], [10.0, 0.0], [10.0, 2.0]])
        labels = np.array([0, 0, 1, 1])
        # S_0 = S_1 = 1, M_01 = 10 → DBI = (1+1)/10 = 0.2
        assert davies_bouldin_index(data, labels) == pytest.approx(0.2)


class TestSilhouetteAndCH:
    def test_silhouette_high_for_good_clustering(self, blobs):
        data, labels = blobs
        assert silhouette_score(data, labels) > 0.7

    def test_silhouette_lower_for_random(self, blobs):
        data, labels = blobs
        rng = np.random.default_rng(1)
        assert silhouette_score(data, rng.permutation(labels)) < 0.2

    def test_silhouette_precomputed_matches(self, blobs):
        from repro.cluster.distance import euclidean_distance_matrix

        data, labels = blobs
        distances = euclidean_distance_matrix(data)
        assert silhouette_score(data, labels) == pytest.approx(
            silhouette_score(data, labels, precomputed_distances=distances)
        )

    def test_calinski_harabasz_prefers_correct_k(self, blobs):
        data, _ = blobs
        dendrogram = AgglomerativeClustering().fit(data)
        scores = {
            k: calinski_harabasz_index(data, dendrogram.labels_at_num_clusters(k))
            for k in range(2, 8)
        }
        assert max(scores, key=scores.get) == 4

    def test_ch_requires_more_points_than_clusters(self):
        data = np.array([[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(ValueError):
            calinski_harabasz_index(data, np.array([0, 1]))

    def test_centroid_distance_cdf_monotone(self, blobs):
        data, labels = blobs
        curves = centroid_distance_cdf(data, labels, num_points=50)
        assert set(curves) == {0, 1, 2, 3}
        for grid, cdf in curves.values():
            assert grid.shape == cdf.shape == (50,)
            assert np.all(np.diff(cdf) >= -1e-12)
            assert cdf[-1] == pytest.approx(1.0)


class TestMetricTuner:
    def test_selects_true_number_of_blobs(self, blobs):
        data, truth = blobs
        dendrogram = AgglomerativeClustering().fit(data)
        tuner = MetricTuner(max_clusters=8)
        labels, curve = tuner.select(data, dendrogram)
        assert isinstance(curve, TuningCurve)
        assert curve.best()[0] == 4
        assert np.unique(labels).size == 4

    def test_threshold_reproduces_selected_cut(self, blobs):
        data, _ = blobs
        dendrogram = AgglomerativeClustering().fit(data)
        labels, curve = MetricTuner(max_clusters=8).select(data, dendrogram)
        _, _, threshold = curve.best()
        assert np.unique(dendrogram.labels_at_distance(threshold)).size == 4

    def test_silhouette_index_also_finds_four(self, blobs):
        data, _ = blobs
        dendrogram = AgglomerativeClustering().fit(data)
        _, curve = MetricTuner(index="silhouette", max_clusters=8).select(data, dendrogram)
        assert curve.best()[0] == 4
        assert not curve.lower_is_better

    def test_curve_rows(self, blobs):
        data, _ = blobs
        dendrogram = AgglomerativeClustering().fit(data)
        curve = MetricTuner(max_clusters=6).evaluate(data, dendrogram)
        rows = curve.as_rows()
        assert len(rows) == 5
        assert {"num_clusters", "score", "threshold"} <= set(rows[0])

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            MetricTuner(index="nonsense")
        with pytest.raises(ValueError):
            MetricTuner(min_clusters=1)
        with pytest.raises(ValueError):
            MetricTuner(min_clusters=5, max_clusters=3)

    def test_not_enough_observations(self):
        data = np.random.default_rng(0).normal(size=(3, 2))
        dendrogram = AgglomerativeClustering().fit(data)
        with pytest.raises(ValueError):
            MetricTuner(min_clusters=5, max_clusters=8).evaluate(data, dendrogram)


@st.composite
def vectors_with_duplicates(draw):
    """Random vectors in which many rows repeat (exact distance ties)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(3, 40))
    distinct = rng.normal(size=(draw(st.integers(1, n)), draw(st.integers(1, 6))))
    return distinct[rng.integers(0, distinct.shape[0], size=n)]


def leaves(dendrogram, node):
    """Observations under dendrogram ``node``, read off the merge table."""
    n = dendrogram.num_observations
    if node < n:
        return {node}
    a, b = dendrogram.merges[node - n, :2]
    return leaves(dendrogram, int(a)) | leaves(dendrogram, int(b))


class TestSweepEquivalence:
    """The tuner's one sweep equals cutting and scoring every k on its own."""

    @settings(max_examples=150, deadline=None)
    @given(
        vectors=vectors_with_duplicates(),
        linkage=st.sampled_from(list(Linkage)),
        index=st.sampled_from(["davies_bouldin", "silhouette", "calinski_harabasz"]),
    )
    def test_labels_and_scores_bit_for_bit(self, vectors, linkage, index):
        dendrogram = AgglomerativeClustering(linkage=linkage).fit(vectors)
        n = vectors.shape[0]
        expected_ks = list(range(min(12, n - 1), 1, -1))
        cuts = list(dendrogram.cuts(expected_ks[0], 2))
        assert [nodes.size for _, nodes in cuts] == expected_ks
        for (labels, nodes), k in zip(cuts, expected_ks):
            assert np.array_equal(labels, dendrogram.labels_at_num_clusters(k))
            assert labels.dtype == dendrogram.labels_at_num_clusters(k).dtype
            for label, node in enumerate(nodes):
                assert set(np.flatnonzero(labels == label)) == leaves(dendrogram, node)

        function = {
            "davies_bouldin": davies_bouldin_index,
            "silhouette": silhouette_score,
            "calinski_harabasz": calinski_harabasz_index,
        }[index]
        tuner = MetricTuner(index=index, max_clusters=12)
        best_labels, curve = tuner.select(vectors, dendrogram)
        for k, score in zip(curve.num_clusters, curve.scores):
            expected = function(vectors, dendrogram.labels_at_num_clusters(int(k)))
            assert np.float64(score).tobytes() == np.float64(expected).tobytes()
        assert np.array_equal(
            best_labels, dendrogram.labels_at_num_clusters(curve.best()[0])
        )
        if index == "davies_bouldin":
            # One (centroid, S) per cluster of the first cut, then one per join.
            assert tuner.last_stats == {"clusters_scored": 2 * expected_ks[0] - 2}

    def test_cuts_validates_its_range(self, blobs):
        data, _ = blobs
        dendrogram = AgglomerativeClustering().fit(data)
        for max_k, min_k in ((3, 4), (81, 2), (5, 0)):
            with pytest.raises(ValueError):
                next(dendrogram.cuts(max_k, min_k))


@st.composite
def analytic_clusters(draw):
    """Clusters of ± pairs at distance r_i around known, far-apart centroids.

    Every member of cluster i lies at r_i from c_i and the pairs cancel, so
    S_i = r_i and M_ij = |c_i − c_j| exactly.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(2, 6))
    dims = draw(st.integers(2, 5))
    lattice = np.array(list(itertools.product(range(-3, 4), repeat=dims)), dtype=float)
    centres = 20.0 * lattice[rng.choice(len(lattice), size=k, replace=False)]
    radii = rng.uniform(0.5, 2.0, size=k)
    points, labels = [], []
    for index, (centre, radius) in enumerate(zip(centres, radii)):
        directions = rng.normal(size=(draw(st.integers(1, 5)), dims))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        for sign in (1.0, -1.0):
            points.append(centre + sign * radius * directions)
            labels += [index] * directions.shape[0]
    return np.vstack(points), np.array(labels), centres, radii


def closed_form_dbi(centres, radii):
    """DBI = (1/k) Σ_i max_{j≠i} (r_i + r_j) / |c_i − c_j|."""
    k = len(radii)
    worst = [
        max((radii[i] + radii[j]) / np.linalg.norm(centres[i] - centres[j])
            for j in range(k) if j != i)
        for i in range(k)
    ]
    return float(np.mean(worst))


class TestAnalyticDaviesBouldin:
    @settings(max_examples=100, deadline=None)
    @given(case=analytic_clusters())
    def test_index_and_sweep_match_the_closed_form(self, case):
        points, labels, centres, radii = case
        expected = closed_form_dbi(centres, radii)
        assert davies_bouldin_index(points, labels) == pytest.approx(expected, rel=1e-12)
        # Clusters at least 20 apart with diameters of at most 4: the cut at
        # k is the designed partition, and the sweep scores it the same.
        k = len(radii)
        dendrogram = AgglomerativeClustering().fit(points)
        curve = MetricTuner(max_clusters=k).evaluate(points, dendrogram)
        assert curve.num_clusters[-1] == k
        assert curve.scores[-1] == pytest.approx(expected, rel=1e-12)
