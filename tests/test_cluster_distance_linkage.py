"""Tests for repro.cluster.distance and repro.cluster.linkage."""

import tracemalloc

import numpy as np
import pytest
from scipy.spatial.distance import cdist, pdist, squareform

from oracles.condensed import condensed_from_square, condensed_index
from oracles.distance import euclidean_distance_matrix as whole_matrix_expansion
from repro.cluster.distance import euclidean_distance_matrix, pairwise_distances
from repro.cluster.linkage import Linkage, lance_williams_coefficients


class TestDistanceMatrix:
    def test_matches_scipy(self, rng):
        vectors = rng.normal(size=(30, 12))
        ours = euclidean_distance_matrix(vectors)
        scipys = squareform(pdist(vectors))
        assert np.allclose(ours, scipys, atol=1e-8)

    def test_zero_diagonal_and_symmetry(self, rng):
        vectors = rng.normal(size=(15, 4))
        matrix = euclidean_distance_matrix(vectors)
        assert np.allclose(np.diag(matrix), 0.0)
        assert np.allclose(matrix, matrix.T)

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            euclidean_distance_matrix(np.ones(5))

    @pytest.mark.parametrize(
        "shape", [(1, 4), (2, 3), (37, 5), (130, 7), (1200, 3), (400, 1008), (3000, 48)]
    )
    def test_row_blocks_give_the_whole_matrix_bits(self, shape):
        vectors = np.random.default_rng(sum(shape)).normal(size=shape)
        matrix = euclidean_distance_matrix(vectors)
        assert np.array_equal(matrix, whole_matrix_expansion(vectors))
        assert np.array_equal(matrix, matrix.T)

    def test_peak_memory_is_the_output(self):
        vectors = np.random.default_rng(5).normal(size=(1500, 48))
        tracemalloc.start()
        try:
            matrix = euclidean_distance_matrix(vectors)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * matrix.nbytes

    def test_pairwise_matches_scipy(self, rng):
        a = rng.normal(size=(10, 6))
        b = rng.normal(size=(7, 6))
        assert np.allclose(pairwise_distances(a, b), cdist(a, b), atol=1e-8)

    def test_pairwise_dimension_mismatch(self):
        with pytest.raises(ValueError):
            pairwise_distances(np.ones((3, 2)), np.ones((3, 4)))

    def test_condensed_index_matches_squareform_layout(self):
        n = 6
        full = np.arange(n * n, dtype=float).reshape(n, n)
        full = (full + full.T) / 2
        np.fill_diagonal(full, 0.0)
        condensed = squareform(full, checks=False)
        assert np.array_equal(condensed_from_square(full), condensed)
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                assert condensed[condensed_index(i, j, n)] == full[i, j]

    def test_condensed_index_errors(self):
        with pytest.raises(ValueError):
            condensed_index(1, 1, 4)
        with pytest.raises(ValueError):
            condensed_index(0, 9, 4)


class TestLanceWilliams:
    def test_average_coefficients(self):
        alpha_i, alpha_j, beta, gamma = lance_williams_coefficients(Linkage.AVERAGE, 2, 3, 4)
        assert alpha_i == pytest.approx(0.4)
        assert alpha_j == pytest.approx(0.6)
        assert beta == 0.0 and gamma == 0.0

    def test_single_and_complete(self):
        assert lance_williams_coefficients(Linkage.SINGLE, 1, 1, 1)[3] == -0.5
        assert lance_williams_coefficients(Linkage.COMPLETE, 1, 1, 1)[3] == 0.5

    def test_ward_coefficients(self):
        alpha_i, alpha_j, beta, gamma = lance_williams_coefficients(Linkage.WARD, 2, 3, 5)
        assert alpha_i == pytest.approx(7 / 10)
        assert alpha_j == pytest.approx(8 / 10)
        assert beta == pytest.approx(-0.5)
        assert gamma == 0.0

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            lance_williams_coefficients(Linkage.AVERAGE, 0, 1, 1)
