"""Tests for the decompose package (simplex solver, representatives, convex
combination, polygon, time-domain mixture)."""

import numpy as np
import pytest

from repro.decompose.batch import decompose_features_batch
from repro.decompose.mixture import mixture_time_series
from repro.decompose.polygon import (
    hull_containment_fraction,
    hull_distance_profile,
    polygon_vertices,
)
from repro.decompose.representative import RepresentativeTowers, select_representative_towers
from repro.decompose.simplex import (
    project_to_simplex_batch,
    simplex_constrained_least_squares_batch,
)


def project_row(values):
    """Project one vector through the row-wise projection."""
    return project_to_simplex_batch(np.asarray(values, dtype=float)[None, :])[0]


def solve_one(vertices, target, **options):
    """Solve one target through the batched kernel."""
    coefficients, residuals = simplex_constrained_least_squares_batch(
        vertices, np.asarray(target, dtype=float)[None, :], **options
    )
    return coefficients[0], float(residuals[0])


def decompose_one(feature, representatives):
    """Decompose one feature vector through the batched decomposition."""
    return decompose_features_batch(np.asarray(feature)[None, :], representatives).at(0)


class TestSimplexProjection:
    def test_already_on_simplex_unchanged(self):
        values = np.array([0.2, 0.3, 0.5])
        assert np.allclose(project_row(values), values)

    def test_projection_properties(self, rng):
        for _ in range(20):
            values = rng.normal(size=5) * 3
            projected = project_row(values)
            assert np.all(projected >= -1e-12)
            assert projected.sum() == pytest.approx(1.0)

    def test_dominant_coordinate(self):
        projected = project_row(np.array([10.0, 0.0, 0.0]))
        assert projected[0] == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            project_row(np.array([]))

    def test_all_equal_row_projects_to_the_uniform_point(self):
        for value in (0.0, 1e16, -3.5):
            assert project_row(np.full(4, value)).tolist() == [0.25] * 4


class TestSimplexLeastSquares:
    def test_interior_point_recovered_exactly(self, rng):
        vertices = rng.normal(size=(4, 3))
        true_weights = np.array([0.1, 0.4, 0.3, 0.2])
        target = true_weights @ vertices
        weights, residual = solve_one(vertices, target)
        assert residual < 1e-8
        assert np.allclose(weights, true_weights, atol=1e-6)

    def test_vertex_recovered(self, rng):
        vertices = rng.normal(size=(4, 3))
        weights, residual = solve_one(vertices, vertices[2])
        assert residual < 1e-8
        assert weights[2] == pytest.approx(1.0, abs=1e-6)

    def test_outside_point_projected(self):
        vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        target = np.array([2.0, 2.0])
        weights, residual = solve_one(vertices, target)
        assert residual > 0
        assert weights.sum() == pytest.approx(1.0)
        assert np.all(weights >= -1e-9)
        # Nearest point of the triangle to (2,2) is (0.5, 0.5).
        projection = weights @ vertices
        assert np.allclose(projection, [0.5, 0.5], atol=1e-6)

    def test_constraints_always_hold(self, rng):
        for _ in range(25):
            vertices = rng.normal(size=(4, 3))
            target = rng.normal(size=3) * 2
            weights, _ = solve_one(vertices, target)
            assert weights.sum() == pytest.approx(1.0)
            assert np.all(weights >= -1e-9)

    def test_exact_and_projected_gradient_agree(self, rng):
        vertices = rng.normal(size=(5, 4))
        target = rng.normal(size=4)
        exact_w, exact_r = solve_one(vertices, target)
        pg_w, pg_r = solve_one(
            vertices, target, exhaustive_limit=0, max_iterations=20_000
        )
        assert pg_r == pytest.approx(exact_r, abs=1e-4)
        assert np.allclose(pg_w @ vertices, exact_w @ vertices, atol=1e-3)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            solve_one(np.ones((3, 2)), np.ones(3))

    def test_single_vertex(self):
        weights, residual = solve_one(
            np.array([[1.0, 1.0]]), np.array([2.0, 2.0])
        )
        assert weights.tolist() == [1.0]
        assert residual == pytest.approx(np.sqrt(2.0))


@pytest.fixture(scope="module")
def feature_clusters():
    """Four tight feature clusters + mixed points with known mixtures."""
    rng = np.random.default_rng(31)
    centers = np.array(
        [[0.0, 0.0, 0.0], [4.0, 0.0, 0.0], [0.0, 4.0, 0.0], [0.0, 0.0, 4.0]]
    )
    features, labels = [], []
    for index, center in enumerate(centers):
        features.append(center + rng.normal(scale=0.15, size=(25, 3)))
        labels.extend([index] * 25)
    features = np.vstack(features)
    labels = np.array(labels)
    tower_ids = np.arange(features.shape[0]) + 100
    return features, labels, tower_ids, centers


class TestRepresentatives:
    def test_one_representative_per_cluster(self, feature_clusters):
        features, labels, tower_ids, _ = feature_clusters
        reps = select_representative_towers(features, labels, tower_ids)
        assert isinstance(reps, RepresentativeTowers)
        assert reps.num_clusters == 4
        assert set(reps.cluster_labels.tolist()) == {0, 1, 2, 3}

    def test_representative_belongs_to_its_cluster(self, feature_clusters):
        features, labels, tower_ids, _ = feature_clusters
        reps = select_representative_towers(features, labels, tower_ids)
        for label, row in zip(reps.cluster_labels, reps.row_indices):
            assert labels[row] == label

    def test_representative_is_far_from_other_clusters(self, feature_clusters):
        features, labels, tower_ids, centers = feature_clusters
        reps = select_representative_towers(features, labels, tower_ids)
        # The representative of cluster 0 should be at least as far from the
        # other clusters as the average member of cluster 0.
        from repro.cluster.distance import pairwise_distances

        members = features[labels == 0]
        others = features[labels != 0]
        rep = reps.feature_of(0)[None, :]
        rep_distance = pairwise_distances(rep, others).min()
        mean_distance = pairwise_distances(members, others).min(axis=1).mean()
        assert rep_distance >= mean_distance * 0.9

    def test_subset_of_clusters(self, feature_clusters):
        features, labels, tower_ids, _ = feature_clusters
        reps = select_representative_towers(
            features, labels, tower_ids, clusters=np.array([1, 3])
        )
        assert set(reps.cluster_labels.tolist()) == {1, 3}

    def test_vertex_matrix_ordering(self, feature_clusters):
        features, labels, tower_ids, _ = feature_clusters
        reps = select_representative_towers(features, labels, tower_ids)
        ordered = reps.vertex_matrix(order=np.array([3, 2, 1, 0]))
        assert np.array_equal(ordered[0], reps.feature_of(3))

    def test_missing_cluster_rejected(self, feature_clusters):
        features, labels, tower_ids, _ = feature_clusters
        with pytest.raises(ValueError):
            select_representative_towers(features, labels, tower_ids, clusters=np.array([9]))

    def test_feature_of_unknown_cluster(self, feature_clusters):
        features, labels, tower_ids, _ = feature_clusters
        reps = select_representative_towers(features, labels, tower_ids)
        with pytest.raises(KeyError):
            reps.feature_of(17)


class TestConvexDecomposition:
    def test_mixture_point_recovers_weights(self, feature_clusters):
        features, labels, tower_ids, centers = feature_clusters
        reps = select_representative_towers(features, labels, tower_ids)
        true_weights = np.array([0.25, 0.25, 0.25, 0.25])
        target = true_weights @ reps.features
        decomposition = decompose_one(target, reps)
        assert decomposition.residual < 1e-8
        assert np.allclose(
            np.array([decomposition.coefficient_of(c) for c in range(4)]),
            true_weights,
            atol=1e-6,
        )
        assert decomposition.is_interior

    def test_decompose_tower_by_id(self, feature_clusters):
        features, labels, tower_ids, _ = feature_clusters
        reps = select_representative_towers(features, labels, tower_ids)
        tower_id = int(tower_ids[10])
        batch = decompose_features_batch(features, reps, tower_ids=tower_ids)
        decomposition = batch.decomposition_of(tower_id)
        assert decomposition.tower_id == tower_id
        assert decomposition.dominant_component() == labels[10]

    def test_members_dominated_by_their_own_cluster(self, feature_clusters):
        features, labels, tower_ids, _ = feature_clusters
        reps = select_representative_towers(features, labels, tower_ids)
        decompositions = decompose_features_batch(features, reps, tower_ids=tower_ids)
        correct = sum(
            1 for d, label in zip(decompositions, labels) if d.dominant_component() == label
        )
        assert correct / len(labels) > 0.95

    def test_unknown_tower_rejected(self, feature_clusters):
        features, labels, tower_ids, _ = feature_clusters
        reps = select_representative_towers(features, labels, tower_ids)
        batch = decompose_features_batch(features, reps, tower_ids=tower_ids)
        with pytest.raises(KeyError):
            batch.decomposition_of(999_999)

    def test_coefficient_of_unknown_component(self, feature_clusters):
        features, labels, tower_ids, _ = feature_clusters
        reps = select_representative_towers(features, labels, tower_ids)
        decomposition = decompose_one(features[0], reps)
        with pytest.raises(KeyError):
            decomposition.coefficient_of(42)

    def test_as_dict_sums_to_one(self, feature_clusters):
        features, labels, tower_ids, _ = feature_clusters
        reps = select_representative_towers(features, labels, tower_ids)
        decomposition = decompose_one(features[7], reps)
        assert sum(decomposition.as_dict().values()) == pytest.approx(1.0)


class TestPolygon:
    def test_vertices_shape(self, feature_clusters):
        features, labels, tower_ids, _ = feature_clusters
        reps = select_representative_towers(features, labels, tower_ids)
        assert polygon_vertices(reps).shape == (4, 3)

    def test_vertex_distance_zero(self, feature_clusters):
        features, labels, tower_ids, _ = feature_clusters
        reps = select_representative_towers(features, labels, tower_ids)
        assert hull_distance_profile(reps.features[:1], reps)[0] < 1e-9

    def test_containment_fraction_high_for_interior_points(self, feature_clusters):
        features, labels, tower_ids, _ = feature_clusters
        reps = select_representative_towers(features, labels, tower_ids)
        rng = np.random.default_rng(0)
        weights = rng.dirichlet(np.ones(4), size=60)
        interior = weights @ reps.features
        assert hull_containment_fraction(interior, reps) == 1.0

    def test_distance_profile_shape(self, feature_clusters):
        features, labels, tower_ids, _ = feature_clusters
        reps = select_representative_towers(features, labels, tower_ids)
        profile = hull_distance_profile(features[:10], reps)
        assert profile.shape == (10,)
        assert np.all(profile >= 0)


class TestTimeDomainMixture:
    def test_exact_mixture_reconstruction(self, feature_clusters):
        features, labels, tower_ids, _ = feature_clusters
        reps = select_representative_towers(features, labels, tower_ids)
        # Build synthetic component patterns and an exact mixture target.
        rng = np.random.default_rng(4)
        patterns = {int(label): np.abs(rng.normal(size=200)) + 0.1 for label in range(4)}
        decomposition = decompose_one(
            0.5 * reps.feature_of(0) + 0.5 * reps.feature_of(1), reps
        )
        from repro.vectorize.normalize import NormalizationMethod, normalize_vector

        target = 0.5 * normalize_vector(patterns[0], NormalizationMethod.MAX) + 0.5 * normalize_vector(
            patterns[1], NormalizationMethod.MAX
        )
        mixture = mixture_time_series(decomposition, patterns, target)
        assert mixture.combined.shape == target.shape
        # The combined series is exactly the coefficient-weighted sum of the
        # normalised component patterns.
        expected = 0.5 * normalize_vector(
            patterns[0], NormalizationMethod.MAX
        ) + 0.5 * normalize_vector(patterns[1], NormalizationMethod.MAX)
        assert np.allclose(mixture.combined, expected, atol=1e-9)
        # The target itself is re-normalised inside mixture_time_series, so
        # the approximation error is small but not exactly zero.
        assert mixture.approximation_error() < 0.2
        assert sum(mixture.component_share().values()) == pytest.approx(1.0)

    def test_missing_pattern_rejected(self, feature_clusters):
        features, labels, tower_ids, _ = feature_clusters
        reps = select_representative_towers(features, labels, tower_ids)
        decomposition = decompose_one(features[0], reps)
        with pytest.raises(KeyError):
            mixture_time_series(decomposition, {0: np.ones(10)}, np.ones(10))

    def test_length_mismatch_rejected(self, feature_clusters):
        features, labels, tower_ids, _ = feature_clusters
        reps = select_representative_towers(features, labels, tower_ids)
        decomposition = decompose_one(features[0], reps)
        patterns = {int(label): np.ones(10) for label in range(4)}
        with pytest.raises(ValueError):
            mixture_time_series(decomposition, patterns, np.ones(12))
