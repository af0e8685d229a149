"""Property-based tests (hypothesis) on the core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles.records import TrafficRecord, batch_of
from repro.cluster.distance import euclidean_distance_matrix
from repro.cluster.hierarchical import AgglomerativeClustering
from repro.decompose.simplex import (
    project_to_simplex_batch,
    simplex_constrained_least_squares_batch,
)
from repro.ingest.dedup import clean_batch
from repro.spectral.components import PrincipalComponents, reconstruct_from_components
from repro.spectral.dft import dft, inverse_dft
from repro.utils.stats import min_max_normalize, zscore_normalize
from repro.vectorize.slots import split_bytes_over_slots_batch

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
positive_floats = st.floats(
    min_value=1e-3, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestNormalisationProperties:
    @given(arrays(np.float64, st.integers(2, 50), elements=finite_floats))
    def test_zscore_mean_is_zero(self, values):
        normalized = zscore_normalize(values)
        assert abs(float(np.mean(normalized))) < 1e-6

    @given(arrays(np.float64, st.integers(2, 50), elements=finite_floats))
    def test_zscore_std_is_one_or_zero(self, values):
        normalized = zscore_normalize(values)
        std = float(np.std(normalized))
        assert abs(std - 1.0) < 1e-6 or std == 0.0

    @given(arrays(np.float64, st.integers(1, 50), elements=finite_floats))
    def test_min_max_in_unit_interval(self, values):
        normalized = min_max_normalize(values)
        assert np.all(normalized >= -1e-12)
        assert np.all(normalized <= 1.0 + 1e-12)

    @given(arrays(np.float64, st.integers(2, 30), elements=finite_floats), st.floats(0.1, 10))
    def test_zscore_is_scale_invariant(self, values, scale):
        if np.std(values) < 1e-6:
            return
        assert np.allclose(
            zscore_normalize(values), zscore_normalize(values * scale), atol=1e-6
        )


class TestDistanceProperties:
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(2, 12), st.integers(1, 6)),
            elements=st.floats(-100, 100, allow_nan=False),
        )
    )
    def test_distance_matrix_is_a_metric_sample(self, vectors):
        matrix = euclidean_distance_matrix(vectors)
        assert np.allclose(matrix, matrix.T, atol=1e-8)
        assert np.allclose(np.diag(matrix), 0.0, atol=1e-8)
        assert np.all(matrix >= -1e-9)
        # Triangle inequality on a few triples.
        n = matrix.shape[0]
        for i in range(min(n, 4)):
            for j in range(min(n, 4)):
                for k in range(min(n, 4)):
                    assert matrix[i, j] <= matrix[i, k] + matrix[k, j] + 1e-6


class TestDftProperties:
    @given(arrays(np.float64, st.integers(8, 128), elements=st.floats(-1e3, 1e3, allow_nan=False)))
    def test_dft_round_trip(self, signal):
        assert np.allclose(inverse_dft(dft(signal)), signal, atol=1e-6)

    @given(arrays(np.float64, st.integers(16, 96), elements=st.floats(-1e3, 1e3, allow_nan=False)))
    def test_parseval_energy_identity(self, signal):
        spectrum = dft(signal)
        time_energy = float(np.sum(signal**2))
        freq_energy = float(np.sum(np.abs(spectrum) ** 2)) / signal.size
        assert time_energy == pytest.approx(freq_energy, rel=1e-6, abs=1e-6)

    @given(arrays(np.float64, st.just(144), elements=st.floats(-1e3, 1e3, allow_nan=False)))
    def test_reconstruction_never_increases_energy(self, signal):
        components = PrincipalComponents(week=None, day=1, half_day=2, num_slots=144)
        reconstructed = reconstruct_from_components(signal, components)
        assert float(np.sum(reconstructed**2)) <= float(np.sum(signal**2)) + 1e-6


class TestSimplexProperties:
    @given(arrays(np.float64, st.integers(1, 10), elements=finite_floats))
    def test_projection_lands_on_simplex(self, values):
        projected = project_to_simplex_batch(values[None, :])[0]
        assert np.all(projected >= -1e-12)
        assert float(projected.sum()) == pytest.approx(1.0, abs=1e-9)

    @settings(max_examples=40)
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(2, 5), st.integers(1, 4)),
            elements=st.floats(-10, 10, allow_nan=False),
        ),
        arrays(np.float64, st.integers(1, 4), elements=st.floats(-10, 10, allow_nan=False)),
    )
    def test_solver_output_is_feasible_and_optimal_vs_vertices(self, vertices, target):
        if vertices.shape[1] != target.size:
            return
        weights, residuals = simplex_constrained_least_squares_batch(vertices, target[None, :])
        weights, residual = weights[0], residuals[0]
        assert np.all(weights >= -1e-9)
        assert float(weights.sum()) == pytest.approx(1.0, abs=1e-6)
        # The returned residual is never worse than using any single vertex.
        for row in range(vertices.shape[0]):
            assert residual <= np.linalg.norm(target - vertices[row]) + 1e-6


class TestClusteringProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(4, 20), st.integers(1, 5)),
            elements=st.floats(-50, 50, allow_nan=False),
        ),
        st.integers(1, 5),
    )
    def test_cut_produces_requested_number_of_clusters(self, vectors, k):
        n = vectors.shape[0]
        k = min(k, n)
        dendrogram = AgglomerativeClustering().fit(vectors)
        labels = dendrogram.labels_at_num_clusters(k)
        assert labels.shape == (n,)
        # Duplicate points can merge at distance 0, but the number of
        # clusters is exactly k when all points are distinct.
        if np.unique(vectors, axis=0).shape[0] == n:
            assert np.unique(labels).size == k

    @settings(max_examples=20, deadline=None)
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(4, 15), st.integers(1, 4)),
            elements=st.floats(-50, 50, allow_nan=False),
        )
    )
    def test_merge_distances_non_negative(self, vectors):
        dendrogram = AgglomerativeClustering().fit(vectors)
        assert np.all(dendrogram.merge_distances >= -1e-9)


class TestSlotSplittingProperties:
    @settings(max_examples=60)
    @given(
        st.floats(0, 86_000, allow_nan=False),
        st.floats(0, 5_000, allow_nan=False),
        positive_floats,
    )
    def test_volume_conserved_inside_window(self, start, duration, volume):
        end = min(start + duration, 86_400.0)
        _, slots, volumes = split_bytes_over_slots_batch(
            np.array([start]), np.array([end]), np.array([volume]), 144
        )
        assert volumes.sum() == pytest.approx(volume, rel=1e-9, abs=1e-9)
        assert np.all((slots >= 0) & (slots < 144))


class TestCleaningProperties:
    @settings(max_examples=30)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 5),
                st.integers(0, 3),
                st.floats(0, 1000, allow_nan=False),
                st.floats(0, 100, allow_nan=False),
                st.floats(0, 1e6, allow_nan=False),
            ),
            min_size=0,
            max_size=40,
        )
    )
    def test_cleaning_is_idempotent(self, raw):
        records = batch_of(
            TrafficRecord(
                user_id=u, tower_id=t, start_s=s, end_s=s + d, bytes_used=v
            )
            for u, t, s, d, v in raw
        )
        once, report_once = clean_batch(records)
        twice, report_twice = clean_batch(once)
        for first, second in zip(once.columns(), twice.columns()):
            assert np.array_equal(first, second)
        assert report_twice.num_exact_duplicates_removed == 0
        assert report_twice.num_conflict_records_removed == 0
        assert report_once.num_output_records == len(once)
