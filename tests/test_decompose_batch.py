"""Batched simplex decomposition — an analytic oracle, equivalence with the
per-target solver in ``tests/oracles/simplex.py``, edge cases, and the
consumers riding on the batch path (model, server, polygon)."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.simplex import project_to_simplex, simplex_constrained_least_squares
from repro.decompose.batch import BatchDecomposition, decompose_features_batch
from repro.decompose.convex import ConvexDecomposition
from repro.decompose.polygon import hull_containment_fraction, hull_distance_profile
from repro.decompose.representative import RepresentativeTowers
from repro.decompose.simplex import (
    project_to_simplex_batch,
    simplex_constrained_least_squares_batch,
)

EQUIVALENCE_ATOL = 1e-9


def project_one(values):
    """Project one vector through the row-wise projection."""
    return project_to_simplex_batch(np.asarray(values, dtype=float)[None, :])[0]


def oracle_decomposition(target, representatives):
    """``(coefficients, residual, projection)`` of one target from the oracle."""
    vertices = representatives.features
    coefficients, residual = simplex_constrained_least_squares(vertices, target)
    return coefficients, residual, coefficients @ vertices


def barycentric_grid(k: int, steps: int) -> np.ndarray:
    """Every weight vector over ``k`` vertices with entries in multiples of
    ``1/steps`` summing to one (the lattice of a ``SimplexGrid``).

    Stars and bars: ``k - 1`` bars among ``steps + k - 1`` slots, each
    weight the number of stars between two bars.
    """
    slots = steps + k - 1
    counts = [
        [right - left - 1 for left, right in zip((-1, *bars), (*bars, slots))]
        for bars in combinations(range(slots), k - 1)
    ]
    return np.array(counts, dtype=float) / steps


def normal_basis(vertices: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning the directions orthogonal to the vertices'
    affine hull (``d - k + 1`` of them for affinely independent vertices)."""
    k, d = vertices.shape
    if k == 1:
        return np.eye(d)
    _, _, vt = np.linalg.svd(vertices[1:] - vertices[0])
    return vt[k - 1:]


def make_representatives(vertices: np.ndarray) -> RepresentativeTowers:
    k = vertices.shape[0]
    return RepresentativeTowers(
        cluster_labels=np.arange(k),
        row_indices=np.arange(k),
        tower_ids=np.arange(k) + 1_000,
        features=vertices,
    )


def sample_targets(rng: np.random.Generator, vertices: np.ndarray, count: int) -> np.ndarray:
    """Interior, exterior, on-vertex and on-edge points for one vertex set."""
    k, d = vertices.shape
    interior = rng.dirichlet(np.ones(k), size=count) @ vertices
    exterior = rng.normal(size=(count, d)) * 4.0
    on_vertex = vertices[rng.integers(0, k, size=count)]
    first, second = rng.integers(0, k, size=(2, count))
    mix = rng.random((count, 1))
    on_edge = mix * vertices[first] + (1.0 - mix) * vertices[second]
    return np.vstack([interior, exterior, on_vertex, on_edge])


def assert_batch_matches_scalar(vertices, targets, **kwargs):
    coefficients, residuals = simplex_constrained_least_squares_batch(
        vertices, targets, **kwargs
    )
    for row in range(targets.shape[0]):
        scalar_c, scalar_r = simplex_constrained_least_squares(
            vertices, targets[row], **kwargs
        )
        np.testing.assert_allclose(
            coefficients[row], scalar_c, atol=EQUIVALENCE_ATOL, rtol=0
        )
        assert abs(residuals[row] - scalar_r) <= EQUIVALENCE_ATOL
        np.testing.assert_allclose(
            coefficients[row] @ vertices, scalar_c @ vertices,
            atol=EQUIVALENCE_ATOL, rtol=0,
        )
    return coefficients, residuals


class TestProjectToSimplexEdgeCases:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            project_one(np.array([0.1, bad, 0.5]))
        with pytest.raises(ValueError, match="non-finite"):
            project_to_simplex_batch(np.array([[0.1, 0.2, 0.3], [0.1, bad, 0.5]]))

    @pytest.mark.parametrize("value", [0.0, 1.0, -5.0, 1e300, -1e300, 1e-300])
    def test_all_equal_projects_to_exact_uniform(self, value):
        projected = project_one(np.full(4, value))
        assert projected.tolist() == [0.25, 0.25, 0.25, 0.25]

    def test_tied_inputs_stay_valid(self):
        projected = project_one(np.array([2.0, 2.0, -1.0]))
        assert np.all(projected >= 0)
        assert projected.sum() == pytest.approx(1.0)
        assert projected[0] == projected[1]

    def test_huge_spread_falls_back_to_one_hot(self):
        projected = project_one(np.array([1e300, 0.0, -1e300]))
        assert projected.tolist() == [1.0, 0.0, 0.0]

    def test_batch_matches_scalar_bitwise(self, rng):
        matrix = rng.normal(size=(64, 5)) * 3.0
        matrix[0] = 7.0  # all-equal row
        matrix[1] = [2.0, 2.0, -1.0, 0.0, 0.0]  # tied row
        matrix[2] = [1e300, 0.0, -1e300, 0.0, 0.0]  # one-hot fallback row
        projected = project_to_simplex_batch(matrix)
        for row in range(matrix.shape[0]):
            assert np.array_equal(projected[row], project_to_simplex(matrix[row]))

    def test_batch_shape_validation(self):
        with pytest.raises(ValueError):
            project_to_simplex_batch(np.ones(3))
        with pytest.raises(ValueError):
            project_to_simplex_batch(np.empty((2, 0)))

    def test_batch_empty_rows(self):
        assert project_to_simplex_batch(np.empty((0, 4))).shape == (0, 4)


class TestAnalyticBarycentricGrid:
    """Points with known coefficients: no second solver needed.

    With ``k <= d + 1`` affinely independent vertices, a point built from
    barycentric weights has exactly those weights as its unique convex
    coefficients and a zero residual.  Offsetting it orthogonally to the
    vertices' affine hull (possible when ``k <= d``) moves it away from the
    polygon without changing its nearest point, so the coefficients stay
    the weights and the residual is the offset's norm.
    """

    SEEDS = range(6)

    @pytest.mark.parametrize(
        "k, d", [(k, d) for d in (2, 3, 4) for k in range(1, d + 2)]
    )
    def test_grid_points_recover_their_weights(self, k, d):
        for seed in self.SEEDS:
            rng = np.random.default_rng(seed)
            vertices = rng.normal(size=(k, d)) * 2.0
            weights = barycentric_grid(k, steps=5 + seed % 2)
            coefficients, residuals = simplex_constrained_least_squares_batch(
                vertices, weights @ vertices
            )
            assert np.abs(coefficients - weights).max() <= EQUIVALENCE_ATOL
            assert np.abs(residuals).max() <= EQUIVALENCE_ATOL

    @pytest.mark.parametrize("k, d", [(k, d) for d in (2, 3, 4) for k in range(1, d + 1)])
    def test_orthogonal_offsets_keep_weights_and_measure_the_residual(self, k, d):
        for seed in self.SEEDS:
            rng = np.random.default_rng(100 + seed)
            vertices = rng.normal(size=(k, d)) * 2.0
            weights = barycentric_grid(k, steps=5 + seed % 2)
            basis = normal_basis(vertices)
            assert np.abs(basis @ (vertices[1:] - vertices[0]).T).max(initial=0.0) < 1e-12
            offsets = rng.normal(size=(weights.shape[0], basis.shape[0])) @ basis
            coefficients, residuals = simplex_constrained_least_squares_batch(
                vertices, weights @ vertices + offsets
            )
            assert np.abs(coefficients - weights).max() <= EQUIVALENCE_ATOL
            expected = np.linalg.norm(offsets, axis=1)
            assert np.abs(residuals - expected).max() <= EQUIVALENCE_ATOL

    def test_decomposition_projects_offset_points_back_onto_the_grid(self):
        rng = np.random.default_rng(7)
        vertices = rng.normal(size=(4, 4))
        weights = barycentric_grid(4, steps=6)
        points = weights @ vertices
        offsets = rng.normal(size=(weights.shape[0], 1)) @ normal_basis(vertices)
        batch = decompose_features_batch(points + offsets, make_representatives(vertices))
        assert np.abs(batch.projections - points).max() <= EQUIVALENCE_ATOL
        assert np.all(batch.interior_mask() == (np.linalg.norm(offsets, axis=1) <= 1e-6))

    def test_grid_enumeration(self):
        grid = barycentric_grid(3, steps=4)
        assert grid.shape == (15, 3)  # C(4 + 2, 2)
        assert np.allclose(grid.sum(axis=1), 1.0)
        assert len({tuple(row) for row in grid.tolist()}) == 15
        assert barycentric_grid(1, steps=5).tolist() == [[1.0]]


class TestBatchKernelEquivalence:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_matches_scalar_on_all_point_families(self, k):
        rng = np.random.default_rng(100 + k)
        for extra in (0, 2, 4):
            d = max(2, k - 1 + extra)  # k <= d+1 keeps the optimum unique
            vertices = rng.normal(size=(k, d)) * 2.0
            targets = sample_targets(rng, vertices, 15)
            coefficients, _ = assert_batch_matches_scalar(vertices, targets)
            assert np.all(coefficients >= 0)
            renormalised = coefficients / coefficients.sum(axis=1, keepdims=True)
            assert np.abs(renormalised.sum(axis=1) - 1.0).max() <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(
        k=st.integers(min_value=1, max_value=5),
        extra_dim=st.integers(min_value=0, max_value=4),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_property_equivalence_and_invariants(self, k, extra_dim, seed):
        rng = np.random.default_rng(seed)
        d = max(2, k - 1 + extra_dim)
        vertices = rng.normal(size=(k, d)) * 3.0
        targets = sample_targets(rng, vertices, 4)
        coefficients, residuals = assert_batch_matches_scalar(vertices, targets)
        # Convexity invariants: exact non-negativity, unit sum after
        # renormalisation, non-negative distances.
        assert np.all(coefficients >= 0)
        renormalised = coefficients / coefficients.sum(axis=1, keepdims=True)
        assert np.abs(renormalised.sum(axis=1) - 1.0).max() <= 1e-12
        assert np.all(residuals >= 0)

    def test_matches_scalar_on_2000_noisy_targets(self):
        # The paper's shape: four vertices in a 3-D feature space, towers
        # near the polygon with noise, and a tenth of them far outside.
        rng = np.random.default_rng(2015)
        vertices = rng.normal(size=(4, 3)) * 2.0
        targets = rng.dirichlet(np.ones(4), size=2_000) @ vertices
        targets += rng.normal(size=targets.shape) * 0.15
        outliers = rng.random(2_000) < 0.1
        targets[outliers] += rng.normal(size=(int(outliers.sum()), 3)) * 3.0
        coefficients, residuals = simplex_constrained_least_squares_batch(vertices, targets)
        scalar = [simplex_constrained_least_squares(vertices, target) for target in targets]
        assert np.abs(coefficients - np.stack([c for c, _ in scalar])).max() <= EQUIVALENCE_ATOL
        assert np.abs(residuals - np.array([r for _, r in scalar])).max() <= EQUIVALENCE_ATOL

    def test_single_vertex(self):
        vertices = np.array([[1.0, 1.0]])
        targets = np.array([[2.0, 2.0], [1.0, 1.0], [-3.0, 5.0]])
        coefficients, residuals = simplex_constrained_least_squares_batch(
            vertices, targets
        )
        assert coefficients.tolist() == [[1.0], [1.0], [1.0]]
        expected = np.linalg.norm(targets - vertices[0], axis=1)
        np.testing.assert_allclose(residuals, expected, atol=0, rtol=0)

    def test_duplicate_vertices_singular_kkt(self, rng):
        # Three identical vertices + one distinct one: every multi-vertex
        # face containing duplicates has an exactly singular KKT system.
        vertices = np.vstack([np.ones((3, 2)), [[0.0, 1.0]]])
        targets = rng.normal(size=(25, 2))
        coefficients, residuals = assert_batch_matches_scalar(vertices, targets)
        assert np.all(coefficients >= 0)
        assert np.abs(coefficients.sum(axis=1) - 1.0).max() <= 1e-12
        assert np.all(np.isfinite(residuals))

    def test_projected_gradient_path(self, rng):
        vertices = rng.normal(size=(6, 5))
        targets = rng.normal(size=(30, 5))
        assert_batch_matches_scalar(vertices, targets, exhaustive_limit=0)

    def test_chunking_is_invisible(self):
        rng = np.random.default_rng(31)
        vertices = rng.normal(size=(4, 3))
        targets = rng.normal(size=(50, 3))
        whole_c, whole_r = simplex_constrained_least_squares_batch(vertices, targets)
        chunked_c, chunked_r = simplex_constrained_least_squares_batch(
            vertices, targets, chunk_size=7
        )
        # LAPACK's blocked multi-RHS solves are not bitwise stable across
        # chunk widths; agreement is ULP-level, far inside the 1e-9 budget.
        np.testing.assert_allclose(whole_c, chunked_c, atol=1e-12, rtol=0)
        np.testing.assert_allclose(whole_r, chunked_r, atol=1e-12, rtol=0)

    def test_empty_targets(self):
        coefficients, residuals = simplex_constrained_least_squares_batch(
            np.ones((3, 2)), np.empty((0, 2))
        )
        assert coefficients.shape == (0, 3)
        assert residuals.shape == (0,)

    def test_validation(self, rng):
        vertices = rng.normal(size=(3, 2))
        with pytest.raises(ValueError):
            simplex_constrained_least_squares_batch(vertices, np.ones(2))
        with pytest.raises(ValueError):
            simplex_constrained_least_squares_batch(vertices, np.ones((4, 3)))
        with pytest.raises(ValueError):
            simplex_constrained_least_squares_batch(np.empty((0, 2)), np.ones((4, 2)))
        with pytest.raises(ValueError, match="non-finite"):
            simplex_constrained_least_squares_batch(
                vertices, np.array([[1.0, np.nan]])
            )
        with pytest.raises(ValueError, match="non-finite"):
            simplex_constrained_least_squares_batch(
                np.array([[1.0, np.inf], [0.0, 1.0]]), np.ones((2, 2))
            )


@pytest.fixture(scope="module")
def batch_setup():
    rng = np.random.default_rng(77)
    vertices = rng.normal(size=(4, 3)) * 2.0
    representatives = make_representatives(vertices)
    targets = sample_targets(rng, vertices, 10)
    tower_ids = np.arange(targets.shape[0]) + 500
    batch = decompose_features_batch(targets, representatives, tower_ids=tower_ids)
    return representatives, targets, tower_ids, batch


class TestBatchDecomposition:
    def test_matches_scalar_decompose_features(self, batch_setup):
        representatives, targets, tower_ids, batch = batch_setup
        for row in range(targets.shape[0]):
            coefficients, residual, projection = oracle_decomposition(
                targets[row], representatives
            )
            view = batch.at(row)
            assert isinstance(view, ConvexDecomposition)
            assert view.tower_id == int(tower_ids[row])
            np.testing.assert_allclose(
                view.coefficients, coefficients, atol=EQUIVALENCE_ATOL, rtol=0
            )
            assert view.residual == pytest.approx(residual, abs=EQUIVALENCE_ATOL)
            np.testing.assert_allclose(
                view.projection, projection, atol=EQUIVALENCE_ATOL, rtol=0
            )
            assert np.array_equal(view.component_labels, representatives.cluster_labels)

    def test_len_iter_and_lookup(self, batch_setup):
        _, targets, tower_ids, batch = batch_setup
        assert len(batch) == targets.shape[0]
        assert batch.num_components == 4
        assert [d.tower_id for d in batch] == tower_ids.tolist()
        assert batch.decomposition_of(int(tower_ids[3])).tower_id == int(tower_ids[3])
        with pytest.raises(KeyError):
            batch.decomposition_of(999_999)
        with pytest.raises(IndexError):
            batch.at(len(batch))

    def test_take_preserves_rows(self, batch_setup):
        _, _, tower_ids, batch = batch_setup
        sub = batch.take(np.array([4, 1]))
        assert sub.tower_ids.tolist() == [int(tower_ids[4]), int(tower_ids[1])]
        assert np.array_equal(sub.coefficients[0], batch.coefficients[4])
        assert np.array_equal(sub.residuals, batch.residuals[[4, 1]])

    def test_dominant_components_and_columns(self, batch_setup):
        _, _, _, batch = batch_setup
        dominant = batch.dominant_components()
        for row in range(len(batch)):
            assert dominant[row] == batch.at(row).dominant_component()
        column = batch.coefficients_for(2)
        np.testing.assert_array_equal(column, batch.coefficients[:, 2])
        with pytest.raises(KeyError):
            batch.coefficients_for(42)

    def test_interior_mask_matches_per_row_flag(self, batch_setup):
        _, _, _, batch = batch_setup
        mask = batch.interior_mask()
        for row in range(len(batch)):
            assert bool(mask[row]) == batch.at(row).is_interior

    def test_as_rows_structure(self, batch_setup):
        _, _, tower_ids, batch = batch_setup
        rows = batch.as_rows()
        assert len(rows) == len(batch)
        first = rows[0]
        assert first["tower_id"] == int(tower_ids[0])
        assert set(first["coefficients"]) == {"0", "1", "2", "3"}
        assert sum(first["coefficients"].values()) == pytest.approx(1.0)
        assert first["residual"] == pytest.approx(float(batch.residuals[0]))

    def test_default_tower_ids_are_minus_one(self, batch_setup):
        representatives, targets, _, _ = batch_setup
        raw = decompose_features_batch(targets[:3], representatives)
        assert raw.tower_ids.tolist() == [-1, -1, -1]

    def test_validation(self, batch_setup):
        representatives, targets, _, _ = batch_setup
        with pytest.raises(ValueError):
            decompose_features_batch(targets[0], representatives)
        with pytest.raises(ValueError):
            decompose_features_batch(
                targets, representatives, tower_ids=np.arange(3)
            )
        with pytest.raises(ValueError):
            BatchDecomposition(
                tower_ids=np.arange(2),
                coefficients=np.ones((3, 4)),
                component_labels=np.arange(4),
                residuals=np.zeros(2),
                features=np.ones((2, 3)),
                projections=np.ones((2, 3)),
            )


class TestDegenerateRepresentativeSets:
    def test_single_component_scalar_and_batch(self):
        lone = np.array([[1.0, 2.0, 3.0]])
        representatives = make_representatives(lone)
        target = np.array([4.0, 2.0, 3.0])
        coefficients, residual, projection = oracle_decomposition(target, representatives)
        assert coefficients.tolist() == [1.0]
        assert residual == pytest.approx(3.0)
        np.testing.assert_array_equal(projection, lone[0])

        batch = decompose_features_batch(
            np.vstack([target, lone[0]]), representatives
        )
        assert batch.coefficients.tolist() == [[1.0], [1.0]]
        assert batch.residuals[0] == pytest.approx(3.0)
        assert batch.residuals[1] == pytest.approx(0.0)
        np.testing.assert_array_equal(batch.projections[0], lone[0])

    def test_duplicate_vertex_rows(self, rng):
        duplicated = np.vstack([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        representatives = make_representatives(duplicated)
        targets = rng.normal(size=(10, 2))
        batch = decompose_features_batch(targets, representatives)
        for row in range(10):
            _, residual, projection = oracle_decomposition(targets[row], representatives)
            assert batch.residuals[row] == pytest.approx(residual, abs=EQUIVALENCE_ATOL)
            np.testing.assert_allclose(
                batch.projections[row], projection, atol=EQUIVALENCE_ATOL, rtol=0
            )
        assert np.all(batch.coefficients >= 0)
        assert np.abs(batch.coefficients.sum(axis=1) - 1.0).max() <= 1e-12


class TestPolygonRidesOnBatch:
    def test_distance_profile_matches_scalar(self, batch_setup):
        representatives, targets, _, _ = batch_setup
        profile = hull_distance_profile(targets, representatives)
        assert profile.shape == (targets.shape[0],)
        for row in range(targets.shape[0]):
            _, scalar, _ = oracle_decomposition(targets[row], representatives)
            assert profile[row] == pytest.approx(scalar, abs=EQUIVALENCE_ATOL)

    def test_containment_matches_scalar_count(self, batch_setup):
        representatives, targets, _, _ = batch_setup
        fraction = hull_containment_fraction(
            targets, representatives, relative_tolerance=0.1
        )
        vertices = representatives.features
        diffs = vertices[:, None, :] - vertices[None, :, :]
        tolerance = 0.1 * float(np.sqrt((diffs**2).sum(axis=2)).max())
        expected = np.mean(
            [
                simplex_constrained_least_squares(vertices, targets[row])[1] <= tolerance
                for row in range(targets.shape[0])
            ]
        )
        assert fraction == pytest.approx(expected)

    def test_distance_profile_rejects_1d(self, batch_setup):
        representatives, _, _, _ = batch_setup
        with pytest.raises(ValueError):
            hull_distance_profile(np.ones(3), representatives)


class TestDecomposeAllRidesOnBatch:
    def test_list_matches_scalar_reference(self, batch_setup):
        representatives, targets, tower_ids, batch = batch_setup
        decompositions = list(batch)
        assert len(decompositions) == targets.shape[0]
        for row, decomposition in enumerate(decompositions):
            coefficients, _, _ = oracle_decomposition(targets[row], representatives)
            assert decomposition.tower_id == int(tower_ids[row])
            np.testing.assert_allclose(
                decomposition.coefficients, coefficients,
                atol=EQUIVALENCE_ATOL, rtol=0,
            )

    def test_misaligned_ids_rejected(self, batch_setup):
        representatives, targets, _, _ = batch_setup
        with pytest.raises(ValueError, match="one entry per feature row"):
            decompose_features_batch(targets, representatives, tower_ids=np.arange(3))


class TestModelBatchDecomposition:
    def test_decompose_all_matches_per_tower(self, fitted_model):
        batch = fitted_model.decompose_all()
        result = fitted_model.result
        assert len(batch) == result.frequency_features.num_towers
        assert np.array_equal(batch.tower_ids, result.frequency_features.tower_ids)
        for tower_id in batch.tower_ids[:5]:
            single = fitted_model.decompose(int(tower_id))
            view = batch.decomposition_of(int(tower_id))
            np.testing.assert_allclose(
                view.coefficients, single.coefficients, atol=EQUIVALENCE_ATOL, rtol=0
            )
            assert view.residual == pytest.approx(single.residual, abs=EQUIVALENCE_ATOL)

    def test_decompose_towers_subset_order(self, fitted_model):
        ids = [int(t) for t in fitted_model.result.frequency_features.tower_ids[:4]]
        wanted = [ids[2], ids[0]]
        batch = fitted_model.decompose_towers(wanted)
        assert batch.tower_ids.tolist() == wanted
        with pytest.raises(KeyError):
            fitted_model.decompose_towers([999_999])


class TestServerBatchDecomposition:
    @pytest.fixture()
    def server(self, fitted_model):
        from repro.io.server import ModelServer

        return ModelServer(fitted_model)

    def test_decompose_all_is_computed_once(self, server, fitted_model):
        first = server.decompose_all()
        second = server.decompose_all()
        assert first is second
        assert len(first) == fitted_model.result.vectorized.num_towers
        assert server.stats()["queries"] == 2

    def test_decompose_served_from_batch(self, server):
        batch = server.decompose_all()
        tower = int(batch.tower_ids[0])
        decomposition = server.decompose(tower)
        np.testing.assert_array_equal(decomposition.coefficients, batch.coefficients[0])
        np.testing.assert_array_equal(decomposition.projection, batch.projections[0])

    def test_decompose_many_rows_match_decompose(self, server):
        ids = server.tower_ids()[:3]
        batch = server.decompose_many(ids)
        assert batch.tower_ids.tolist() == ids
        again = server.decompose(ids[0])
        np.testing.assert_array_equal(again.coefficients, batch.coefficients[0])

    def test_decompose_many_slices_cached_batch(self, server):
        whole = server.decompose_all()
        ids = [int(t) for t in whole.tower_ids[[5, 2]]]
        sliced = server.decompose_many(ids)
        assert sliced.tower_ids.tolist() == ids
        assert np.array_equal(sliced.coefficients[0], whole.coefficients[5])

    def test_decompose_many_repeats_duplicate_ids(self, server):
        whole = server.decompose_all()
        rows = [4, 1, 4]
        sliced = server.decompose_many([int(t) for t in whole.tower_ids[rows]])
        assert sliced.tower_ids.tolist() == whole.tower_ids[rows].tolist()
        np.testing.assert_array_equal(sliced.coefficients, whole.coefficients[rows])
        np.testing.assert_array_equal(sliced.residuals, whole.residuals[rows])
        np.testing.assert_array_equal(sliced.projections, whole.projections[rows])

    def test_rows_out_of_tower_order_are_rejected(self, fitted_model, monkeypatch):
        from repro.io.server import ModelServer

        whole = fitted_model.decompose_all()
        reversed_rows = whole.take(np.arange(len(whole))[::-1])
        monkeypatch.setattr(fitted_model, "decompose_all", lambda: reversed_rows)
        with pytest.raises(ValueError, match="tower order"):
            ModelServer(fitted_model)

    def test_unknown_tower_raises_keyerror(self, server):
        with pytest.raises(KeyError):
            server.decompose_many([999_999])
        server.decompose_all()
        with pytest.raises(KeyError):
            server.decompose(999_999)
