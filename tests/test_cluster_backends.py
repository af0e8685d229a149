"""Tests for repro.cluster.backends — backend registry and cut equivalence.

The load-bearing property: the ``nn_chain`` backend must reproduce the cuts
of the full-matrix oracle (``tests/oracles/generic_backend.py``) — the same partition at every number of
clusters and at every distance threshold — for all four reducible linkages,
so backend selection is purely a performance knob.  The property holds on
tie-free distances (continuous random inputs); exact ties make the hierarchy
itself ambiguous and backends may break them differently, so the
duplicate-point tests below assert only cut validity, not cross-backend
equality.
"""

import numpy as np
import pytest

from oracles.generic_backend import GenericBackend
from repro.cluster.backends import (
    AUTO_BACKEND,
    BACKEND_CHOICES,
    BACKEND_NAMES,
    NNChainBackend,
    get_backend,
    resolve_backend,
)
from repro.cluster.distance import (
    condensed_from_square,
    condensed_index,
    condensed_indices,
    euclidean_distance_matrix,
    square_from_condensed,
)
from repro.cluster.hierarchical import AgglomerativeClustering, Dendrogram
from repro.cluster.linkage import Linkage

ALL_LINKAGES = list(Linkage)

#: The registered backends plus the full-matrix oracle.
ENGINE_NAMES = ("generic", *BACKEND_NAMES)


def engine(name):
    """The ``backend=`` spec of an engine: a registry name, or the oracle instance."""
    return GenericBackend() if name == "generic" else name


def partitions_equal(a, b):
    """True when two labelings describe the same partition."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        return False
    mapping = {}
    for x, y in zip(a, b):
        if x in mapping and mapping[x] != y:
            return False
        mapping[x] = y
    return len(set(mapping.values())) == len(mapping)


class TestRegistry:
    def test_backend_names(self):
        assert BACKEND_NAMES == ("nn_chain", "nn_chain_lowmem")
        assert BACKEND_CHOICES == ("auto", "nn_chain", "nn_chain_lowmem")

    def test_get_backend(self):
        assert isinstance(get_backend("nn_chain"), NNChainBackend)
        for name in ("bogus", "generic"):
            with pytest.raises(ValueError, match="unknown clustering backend"):
                get_backend(name)

    def test_generic_is_no_longer_a_backend_name(self):
        with pytest.raises(ValueError, match="generic"):
            AgglomerativeClustering(backend="generic")

    @pytest.mark.parametrize("linkage", ALL_LINKAGES)
    def test_auto_prefers_nn_chain_for_reducible_linkages(self, linkage):
        backend = resolve_backend(AUTO_BACKEND, linkage)
        assert isinstance(backend, NNChainBackend)

    def test_resolve_accepts_instances(self):
        backend = GenericBackend()
        assert resolve_backend(backend, Linkage.AVERAGE) is backend

    def test_nn_chain_rejects_unsupported_linkage(self):
        backend = NNChainBackend()
        unsupported = object()
        assert not backend.supports(unsupported)
        with pytest.raises(ValueError):
            backend.compute_merges(np.zeros(3), 3, unsupported)


class TestCondensedHelpers:
    def test_round_trip(self, rng):
        square = euclidean_distance_matrix(rng.normal(size=(9, 3)))
        condensed = condensed_from_square(square)
        assert condensed.shape == (9 * 8 // 2,)
        assert np.allclose(square_from_condensed(condensed, 9), square)

    def test_condensed_indices_matches_scalar(self):
        n = 11
        for i in range(n):
            ks = np.array([k for k in range(n) if k != i])
            expected = [condensed_index(i, int(k), n) for k in ks]
            assert condensed_indices(i, ks, n).tolist() == expected

    def test_square_from_condensed_validates_size(self):
        with pytest.raises(ValueError):
            square_from_condensed(np.zeros(4), 4)


class TestCutEquivalence:
    """Property-style: nn_chain reproduces the oracle's cuts on random inputs."""

    @pytest.mark.parametrize("linkage", ALL_LINKAGES)
    @pytest.mark.parametrize("seed", range(4))
    def test_all_cuts_match(self, linkage, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(10, 50))
        vectors = rng.normal(size=(n, int(rng.integers(2, 8))))

        generic = AgglomerativeClustering(linkage=linkage, backend=GenericBackend()).fit(vectors)
        chain = AgglomerativeClustering(linkage=linkage, backend="nn_chain").fit(vectors)

        # Identical merge-height multisets (nn_chain output is sorted).
        assert np.allclose(
            np.sort(generic.merge_distances), chain.merge_distances, atol=1e-8
        )

        # labels_at_num_clusters agrees at every possible cut.
        for k in range(1, n + 1):
            assert partitions_equal(
                generic.labels_at_num_clusters(k), chain.labels_at_num_clusters(k)
            ), f"partition mismatch at k={k} ({linkage})"

        # labels_at_distance agrees at thresholds between distinct merge
        # heights and beyond both extremes.
        heights = np.sort(generic.merge_distances)
        gaps = np.diff(heights)
        midpoints = (heights[:-1] + gaps / 2)[gaps > 1e-6]
        thresholds = [0.0, float(heights[-1] * 2 + 1.0), *midpoints.tolist()]
        for threshold in thresholds:
            assert partitions_equal(
                generic.labels_at_distance(threshold),
                chain.labels_at_distance(threshold),
            ), f"partition mismatch at threshold={threshold} ({linkage})"

    @pytest.mark.parametrize("linkage", ALL_LINKAGES)
    def test_duplicate_points_all_cuts_valid(self, linkage):
        # Exact ties (duplicate observations) exercise the chain's
        # tie-breaking; cuts must stay valid partitions of the right size.
        rng = np.random.default_rng(7)
        base = rng.normal(size=(6, 3))
        vectors = np.vstack([base, base, base])
        n = vectors.shape[0]
        chain = AgglomerativeClustering(linkage=linkage, backend="nn_chain").fit(vectors)
        assert np.all(np.diff(chain.merge_distances) >= -1e-12)
        for k in (1, 2, 6, n):
            labels = chain.labels_at_num_clusters(k)
            assert np.unique(labels).size == k

    def test_precomputed_distances_equivalence(self, rng):
        vectors = rng.normal(size=(24, 5))
        distances = euclidean_distance_matrix(vectors)
        generic = AgglomerativeClustering(backend=GenericBackend()).fit(
            np.empty((0, 0)), precomputed_distances=distances
        )
        chain = AgglomerativeClustering(backend="nn_chain").fit(
            np.empty((0, 0)), precomputed_distances=distances
        )
        for k in (2, 4, 9):
            assert partitions_equal(
                generic.labels_at_num_clusters(k), chain.labels_at_num_clusters(k)
            )


class TestNonMonotoneDistanceCut:
    """labels_at_distance must agree between execution-ordered and
    canonicalised merge histories even when floating-point noise makes an
    average-linkage execution order non-monotone."""

    def test_fallback_matches_canonical_order(self):
        # Execution-ordered history of a degenerate average-linkage run:
        # the second merge lands epsilon *below* the first (fp noise), which
        # trips the non-monotone fallback in labels_at_distance.
        execution_order = Dendrogram(
            merges=np.array(
                [
                    [0.0, 1.0, 1.0, 2.0],
                    [2.0, 3.0, 1.0 - 1e-6, 2.0],
                    [4.0, 5.0, 2.0, 4.0],
                ]
            ),
            num_observations=4,
        )
        # The same hierarchy canonicalised (stably sorted by height) as the
        # nn_chain backend emits it.
        canonical = Dendrogram(
            merges=np.array(
                [
                    [2.0, 3.0, 1.0 - 1e-6, 2.0],
                    [0.0, 1.0, 1.0, 2.0],
                    [4.0, 5.0, 2.0, 4.0],
                ]
            ),
            num_observations=4,
        )
        assert not np.all(np.diff(execution_order.merge_distances) >= -1e-12)
        for threshold in (0.5, 1.5, 3.0):
            assert partitions_equal(
                execution_order.labels_at_distance(threshold),
                canonical.labels_at_distance(threshold),
            )
        assert np.unique(execution_order.labels_at_distance(1.5)).size == 2

    def test_nn_chain_output_is_always_monotone(self, rng):
        # Canonicalisation sorts merges, so the searchsorted fast path is
        # always valid for nn_chain dendrograms.
        vectors = rng.normal(size=(40, 4))
        chain = AgglomerativeClustering(backend="nn_chain").fit(vectors)
        assert np.all(np.diff(chain.merge_distances) >= 0.0)


class TestDendrogramConventions:
    @pytest.mark.parametrize("backend", ENGINE_NAMES)
    def test_scipy_linkage_matrix_convention(self, rng, backend):
        vectors = rng.normal(size=(15, 3))
        dendrogram = AgglomerativeClustering(backend=engine(backend)).fit(vectors)
        merges = dendrogram.merges
        assert merges.shape == (14, 4)
        # Row m creates cluster 15 + m; children always reference
        # already-created clusters.
        for m in range(merges.shape[0]):
            a, b = int(merges[m, 0]), int(merges[m, 1])
            assert a != b
            assert 0 <= a < 15 + m and 0 <= b < 15 + m
        assert merges[-1, 3] == 15

    @pytest.mark.parametrize("backend", ENGINE_NAMES)
    def test_single_observation(self, backend):
        dendrogram = AgglomerativeClustering(backend=engine(backend)).fit(np.ones((1, 3)))
        assert dendrogram.num_observations == 1
        assert dendrogram.merges.shape == (0, 4)

    @pytest.mark.parametrize("backend", ENGINE_NAMES)
    def test_two_observations(self, backend):
        dendrogram = AgglomerativeClustering(backend=engine(backend)).fit(
            np.array([[0.0, 0.0], [3.0, 4.0]])
        )
        assert dendrogram.merges.shape == (1, 4)
        assert dendrogram.merges[0, 2] == pytest.approx(5.0)
