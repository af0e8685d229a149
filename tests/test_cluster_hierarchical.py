"""Tests for repro.cluster.hierarchical (against scipy and on synthetic blobs)."""

import numpy as np
import pytest
from scipy.cluster.hierarchy import fcluster, linkage as scipy_linkage

from repro.cluster.hierarchical import (
    AgglomerativeClustering,
    ClusteringResult,
    Dendrogram,
    cut_by_distance,
    cut_by_num_clusters,
)
from repro.cluster.linkage import Linkage


def make_blobs(rng, centers, points_per_blob=15, spread=0.2):
    data = []
    labels = []
    for index, center in enumerate(centers):
        data.append(rng.normal(loc=center, scale=spread, size=(points_per_blob, len(center))))
        labels.extend([index] * points_per_blob)
    return np.vstack(data), np.array(labels)


def labels_match(a, b):
    """True when two labelings describe the same partition."""
    a = np.asarray(a)
    b = np.asarray(b)
    mapping = {}
    for x, y in zip(a, b):
        if x in mapping and mapping[x] != y:
            return False
        mapping[x] = y
    return len(set(mapping.values())) == len(mapping)


class TestAgainstScipy:
    @pytest.mark.parametrize(
        "our_linkage,scipy_method",
        [
            (Linkage.AVERAGE, "average"),
            (Linkage.SINGLE, "single"),
            (Linkage.COMPLETE, "complete"),
            (Linkage.WARD, "ward"),
        ],
    )
    def test_merge_distances_match(self, rng, our_linkage, scipy_method):
        vectors = rng.normal(size=(25, 5))
        ours = AgglomerativeClustering(linkage=our_linkage).fit(vectors)
        theirs = scipy_linkage(vectors, method=scipy_method)
        assert np.allclose(np.sort(ours.merge_distances), np.sort(theirs[:, 2]), atol=1e-8)

    @pytest.mark.parametrize(
        "our_linkage,scipy_method",
        [(Linkage.AVERAGE, "average"), (Linkage.COMPLETE, "complete")],
    )
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_cut_partitions_match(self, rng, our_linkage, scipy_method, k):
        vectors = rng.normal(size=(30, 4))
        ours = AgglomerativeClustering(linkage=our_linkage).fit(vectors)
        our_labels = ours.labels_at_num_clusters(k)
        their_labels = fcluster(scipy_linkage(vectors, method=scipy_method), k, criterion="maxclust")
        assert labels_match(our_labels, their_labels)


class TestBlobs:
    def test_recovers_well_separated_blobs(self, rng):
        vectors, truth = make_blobs(rng, [(0, 0), (8, 8), (-8, 8)])
        result = AgglomerativeClustering().fit_predict(vectors, num_clusters=3)
        assert labels_match(result.labels, truth)

    def test_distance_threshold_cut(self, rng):
        vectors, truth = make_blobs(rng, [(0, 0), (10, 10)])
        dendrogram = AgglomerativeClustering().fit(vectors)
        # A threshold between the blob diameter and the blob separation
        # recovers exactly two clusters.
        labels = dendrogram.labels_at_distance(5.0)
        assert np.unique(labels).size == 2
        assert labels_match(labels, truth)

    def test_threshold_extremes(self, rng):
        vectors, _ = make_blobs(rng, [(0, 0), (10, 10)], points_per_blob=5)
        dendrogram = AgglomerativeClustering().fit(vectors)
        assert np.unique(dendrogram.labels_at_distance(1e9)).size == 1
        assert np.unique(dendrogram.labels_at_distance(0.0)).size == vectors.shape[0]


class TestDendrogram:
    def test_merge_matrix_shape_and_sizes(self, rng):
        vectors = rng.normal(size=(12, 3))
        dendrogram = AgglomerativeClustering().fit(vectors)
        assert dendrogram.merges.shape == (11, 4)
        assert dendrogram.merges[-1, 3] == 12  # last merge contains everything

    def test_single_observation(self):
        dendrogram = AgglomerativeClustering().fit(np.ones((1, 3)))
        assert dendrogram.num_observations == 1
        assert dendrogram.labels_at_num_clusters(1).tolist() == [0]

    def test_labels_at_invalid_k(self, rng):
        dendrogram = AgglomerativeClustering().fit(rng.normal(size=(5, 2)))
        with pytest.raises(ValueError):
            dendrogram.labels_at_num_clusters(0)
        with pytest.raises(ValueError):
            dendrogram.labels_at_num_clusters(6)

    def test_labels_are_contiguous_from_zero(self, rng):
        dendrogram = AgglomerativeClustering().fit(rng.normal(size=(20, 3)))
        labels = dendrogram.labels_at_num_clusters(4)
        assert set(labels.tolist()) == {0, 1, 2, 3}

    def test_functional_wrappers(self, rng):
        vectors = rng.normal(size=(10, 2))
        dendrogram = AgglomerativeClustering().fit(vectors)
        assert np.array_equal(
            cut_by_num_clusters(dendrogram, 3), dendrogram.labels_at_num_clusters(3)
        )
        assert np.array_equal(
            cut_by_distance(dendrogram, 1.0), dendrogram.labels_at_distance(1.0)
        )

    def test_invalid_merge_shape_rejected(self):
        with pytest.raises(ValueError):
            Dendrogram(merges=np.zeros((3, 4)), num_observations=3)

    @pytest.mark.parametrize(
        "children",
        [
            [[0, 1], [2, 5], [3, 4]],  # row 1 joins the cluster row 2 creates
            [[0, 1], [0, 2], [3, 5]],  # observation 0 joined twice
            [[0, 1], [2, 3], [4, -1]],  # negative id
            [[0, 1], [2, 3], [4, 5.5]],  # fractional id
            [[0, 1], [2, 3], [4, np.nan]],
        ],
    )
    def test_merges_must_join_existing_clusters_once(self, children):
        # The cuts follow parent pointers from each observation to its
        # root, so the merge table must describe a forest.
        merges = np.column_stack([np.array(children, dtype=float), [1.0, 2.0, 3.0], [2, 2, 4]])
        with pytest.raises(ValueError, match="each once"):
            Dendrogram(merges=merges, num_observations=4)


class TestClusteringResult:
    def test_sizes_and_percentages(self, rng):
        vectors, _ = make_blobs(rng, [(0, 0), (9, 9)], points_per_blob=10)
        result = AgglomerativeClustering().fit_predict(vectors, num_clusters=2)
        assert isinstance(result, ClusteringResult)
        assert result.num_clusters == 2
        assert result.cluster_sizes().sum() == 20
        assert result.percentages().sum() == pytest.approx(100.0)
        assert result.members_of(0).size + result.members_of(1).size == 20

    def test_fit_predict_argument_validation(self, rng):
        vectors = rng.normal(size=(6, 2))
        clusterer = AgglomerativeClustering()
        with pytest.raises(ValueError):
            clusterer.fit_predict(vectors)
        with pytest.raises(ValueError):
            clusterer.fit_predict(vectors, num_clusters=2, distance_threshold=1.0)

    def test_precomputed_distances(self, rng):
        vectors = rng.normal(size=(12, 3))
        from repro.cluster.distance import euclidean_distance_matrix

        distances = euclidean_distance_matrix(vectors)
        direct = AgglomerativeClustering().fit(vectors)
        precomputed = AgglomerativeClustering().fit(
            np.empty((0, 0)), precomputed_distances=distances
        )
        assert np.allclose(direct.merge_distances, precomputed.merge_distances)

    def test_precomputed_distances_must_be_square(self):
        with pytest.raises(ValueError):
            AgglomerativeClustering().fit(
                np.empty((0, 0)), precomputed_distances=np.ones((3, 4))
            )


class TestNonFiniteInput:
    """NaN/inf input is refused before any backend runs: ``nn_chain`` marks
    retired clusters with +inf, so finite distances are its precondition."""

    @pytest.mark.parametrize("backend", ["nn_chain", "nn_chain_lowmem"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_vectors(self, rng, backend, value):
        vectors = rng.normal(size=(8, 6))
        vectors[5, 2] = value
        vectors[7, 0] = value
        with pytest.raises(ValueError, match="^vectors row 5 holds a NaN or infinite value$"):
            AgglomerativeClustering(backend=backend).fit(vectors)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_precomputed_distances(self, rng, value):
        from repro.cluster.distance import euclidean_distance_matrix

        distances = euclidean_distance_matrix(rng.normal(size=(7, 3)))
        distances[3, 4] = distances[4, 3] = value
        with pytest.raises(
            ValueError, match="^precomputed_distances row 3 holds a NaN or infinite value$"
        ):
            AgglomerativeClustering().fit(
                np.empty((0, 0)), precomputed_distances=distances
            )


class TestNegativePrecomputedDistances:
    """A negative distance is refused before any backend runs; −0.0 is not
    negative and merges at height −0.0."""

    def test_negative_entry_names_its_row(self):
        with pytest.raises(
            ValueError, match="^precomputed_distances row 0 holds a negative distance$"
        ):
            AgglomerativeClustering().fit(
                np.empty((0, 0)),
                precomputed_distances=[[0, -1, 2], [-1, 0, 3], [2, 3, 0]],
            )

    def test_first_row_holding_one_is_named(self):
        distances = np.array(
            [[0.0, 1.0, 2.0, 4.0], [1.0, 0.0, 3.0, -1e-300], [2.0, 3.0, 0.0, 5.0], [4.0, -1e-300, 5.0, 0.0]]
        )
        with pytest.raises(ValueError, match="^precomputed_distances row 1 holds"):
            AgglomerativeClustering().fit(np.empty((0, 0)), precomputed_distances=distances)

    def test_negative_zero_is_accepted(self):
        dendrogram = AgglomerativeClustering().fit(
            np.empty((0, 0)), precomputed_distances=[[0, -0.0, 2], [-0.0, 0, 3], [2, 3, 0]]
        )
        assert dendrogram.merges[:, :2].tolist() == [[0, 1], [2, 3]]
        assert dendrogram.merges[:, 2].tolist() == [0.0, 2.5]
