"""Tests for the memory-bounded ``nn_chain_lowmem`` clustering backend.

The load-bearing property mirrors ``test_cluster_backends``: on tie-free
distances the lowmem backend must reproduce the full-matrix oracle's cuts
for every reducible linkage, at every cluster count and distance threshold —
while never materialising any pairwise matrix.  Results must also be
invariant to the blocked-scan tile size (tiling is purely a memory knob).
Exact ties remain ambiguous, as for every backend pair: the duplicate-point
test asserts cut validity only, not cross-backend equality.
"""

import numpy as np
import pytest

from oracles.generic_backend import GenericBackend
from repro.cluster.backends import (
    AUTO_BACKEND,
    AUTO_LOWMEM_THRESHOLD,
    DEFAULT_TILE_SIZE,
    NNChainBackend,
    NNChainLowMemBackend,
    get_backend,
    resolve_backend,
)
from repro.cluster.distance import euclidean_distance_matrix
from repro.cluster.hierarchical import AgglomerativeClustering
from repro.cluster.linkage import Linkage
from repro.core.config import ModelConfig

REDUCIBLE_LINKAGES = [
    Linkage.SINGLE,
    Linkage.COMPLETE,
    Linkage.AVERAGE,
    Linkage.WARD,
]


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


class TestRegistryAndResolution:
    def test_get_backend_returns_lowmem(self):
        backend = get_backend("nn_chain_lowmem")
        assert isinstance(backend, NNChainLowMemBackend)
        assert backend.tile_size == DEFAULT_TILE_SIZE
        assert backend.accepts_features

    def test_get_backend_threads_tile_size(self):
        assert get_backend("nn_chain_lowmem", tile_size=64).tile_size == 64
        # tile_size is ignored by backends that do not take one
        assert isinstance(get_backend("nn_chain", tile_size=64), NNChainBackend)

    def test_lowmem_rejects_bad_tile_size(self):
        with pytest.raises(ValueError):
            NNChainLowMemBackend(tile_size=0)
        with pytest.raises(ValueError):
            NNChainLowMemBackend(tile_size=-3)

    @pytest.mark.parametrize("linkage", REDUCIBLE_LINKAGES)
    def test_auto_upgrades_to_lowmem_above_threshold(self, linkage):
        small = resolve_backend(
            AUTO_BACKEND, linkage, num_observations=AUTO_LOWMEM_THRESHOLD - 1
        )
        big = resolve_backend(
            AUTO_BACKEND, linkage, num_observations=AUTO_LOWMEM_THRESHOLD
        )
        assert isinstance(small, NNChainBackend)
        assert isinstance(big, NNChainLowMemBackend)

    def test_auto_without_size_keeps_nn_chain(self):
        assert isinstance(
            resolve_backend(AUTO_BACKEND, Linkage.AVERAGE), NNChainBackend
        )

    @pytest.mark.parametrize("num_observations", [None, 10, 10**6])
    @pytest.mark.parametrize("spec", [AUTO_BACKEND, "nn_chain", "nn_chain_lowmem"])
    def test_non_reducible_linkage_raises_for_every_spec(self, spec, num_observations):
        # "auto" resolves to a chain engine, so it refuses a linkage the
        # chain cannot run exactly like the named backends do.
        with pytest.raises(ValueError, match="does not support linkage"):
            resolve_backend(spec, object(), num_observations=num_observations)

    def test_named_lowmem_rejects_unsupported_linkage(self):
        unsupported = object()
        backend = NNChainLowMemBackend()
        assert not backend.supports(unsupported)
        with pytest.raises(ValueError):
            backend.compute_merges_from_features(np.zeros((4, 2)), unsupported)

    def test_config_accepts_lowmem_and_validates_tile(self):
        config = ModelConfig(cluster_backend="nn_chain_lowmem", cluster_tile_size=256)
        assert config.cluster_tile_size == 256
        with pytest.raises(ValueError):
            ModelConfig(cluster_tile_size=0)
        with pytest.raises(ValueError):
            ModelConfig(cluster_tile_size=-1)


class TestFeatureEntryPoint:
    def test_default_feature_entry_point_matches_square(self, rng):
        # The base-class default (materialise, then delegate) must agree with
        # the explicit square path for backends without a native feature mode.
        vectors = rng.normal(size=(30, 4))
        backend = GenericBackend()
        via_features = backend.compute_merges_from_features(vectors, Linkage.AVERAGE)
        via_square = backend.compute_merges_from_square(
            euclidean_distance_matrix(vectors), Linkage.AVERAGE
        )
        assert np.array_equal(via_features, via_square)

    def test_feature_entry_point_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            GenericBackend().compute_merges_from_features(
                np.zeros(5), Linkage.AVERAGE
            )
        with pytest.raises(ValueError):
            NNChainLowMemBackend().compute_merges_from_features(
                np.zeros(5), Linkage.AVERAGE
            )

    def test_lowmem_never_builds_a_pairwise_matrix(self, rng, monkeypatch):
        # The whole point of the backend: the O(n²) kernels must not run.
        import repro.cluster.backends.base as base_module
        import repro.cluster.hierarchical as hier_module

        def forbidden(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("dense distance matrix was materialised")

        monkeypatch.setattr(
            hier_module, "euclidean_distance_matrix", forbidden
        )
        monkeypatch.setattr(
            base_module, "euclidean_distance_matrix", forbidden
        )
        vectors = rng.normal(size=(40, 5))
        dendrogram = AgglomerativeClustering(
            linkage=Linkage.WARD, backend="nn_chain_lowmem"
        ).fit(vectors)
        assert dendrogram.merges.shape == (39, 4)

    def test_precomputed_distances_degrade_to_condensed_chain(self, rng):
        # Handed a ready-made matrix there is nothing left to save; the
        # lowmem backend must still produce the family's cuts.
        vectors = rng.normal(size=(25, 4))
        distances = euclidean_distance_matrix(vectors)
        lowmem = AgglomerativeClustering(backend="nn_chain_lowmem").fit(
            np.empty((0, 0)), precomputed_distances=distances
        )
        chain = AgglomerativeClustering(backend="nn_chain").fit(
            np.empty((0, 0)), precomputed_distances=distances
        )
        assert np.array_equal(lowmem.merges, chain.merges)

    @pytest.mark.parametrize("backend", ["nn_chain_lowmem"])
    def test_degenerate_inputs(self, backend):
        single = AgglomerativeClustering(backend=backend).fit(np.ones((1, 3)))
        assert single.merges.shape == (0, 4)
        pair = AgglomerativeClustering(backend=backend).fit(
            np.array([[0.0, 0.0], [3.0, 4.0]])
        )
        assert pair.merges.shape == (1, 4)
        assert pair.merges[0, 2] == pytest.approx(5.0)


class TestCutEquivalence:
    """Property-style: lowmem reproduces the oracle's cuts on tie-free inputs."""

    @pytest.mark.parametrize("linkage", REDUCIBLE_LINKAGES)
    @pytest.mark.parametrize("n", [50, 200, 800])
    def test_all_cuts_match_generic(self, linkage, n):
        rng = np.random.default_rng(1000 + n)
        vectors = rng.normal(size=(n, int(rng.integers(3, 8))))

        generic = AgglomerativeClustering(linkage=linkage, backend=GenericBackend()).fit(
            vectors
        )
        lowmem = AgglomerativeClustering(
            linkage=linkage, backend="nn_chain_lowmem"
        ).fit(vectors)

        # Identical merge-height multisets (lowmem output is sorted).
        assert np.allclose(
            np.sort(generic.merge_distances), lowmem.merge_distances, atol=1e-8
        )

        # Partitions agree at a spread of cluster counts…
        ks = sorted({1, 2, 3, 5, 8, n // 4, n // 2, n - 1, n})
        for k in ks:
            if 1 <= k <= n:
                assert partitions_equal(
                    generic.labels_at_num_clusters(k),
                    lowmem.labels_at_num_clusters(k),
                ), f"partition mismatch at k={k} ({linkage}, n={n})"

        # …and at thresholds between distinct merge heights.
        heights = np.sort(generic.merge_distances)
        gaps = np.diff(heights)
        midpoints = (heights[:-1] + gaps / 2)[gaps > 1e-6]
        stride = max(1, midpoints.size // 8)
        thresholds = [0.0, float(heights[-1] * 2 + 1.0), *midpoints[::stride]]
        for threshold in thresholds:
            assert partitions_equal(
                generic.labels_at_distance(threshold),
                lowmem.labels_at_distance(threshold),
            ), f"partition mismatch at threshold={threshold} ({linkage}, n={n})"

    @pytest.mark.parametrize("linkage", REDUCIBLE_LINKAGES)
    def test_matches_condensed_nn_chain(self, linkage, rng):
        vectors = rng.normal(size=(60, 5))
        chain = AgglomerativeClustering(linkage=linkage, backend="nn_chain").fit(
            vectors
        )
        lowmem = AgglomerativeClustering(
            linkage=linkage, backend="nn_chain_lowmem"
        ).fit(vectors)
        assert np.allclose(chain.merge_distances, lowmem.merge_distances, atol=1e-8)
        for k in (2, 4, 9, 30):
            assert partitions_equal(
                chain.labels_at_num_clusters(k), lowmem.labels_at_num_clusters(k)
            )

    def test_lowmem_output_is_monotone(self, rng):
        vectors = rng.normal(size=(50, 4))
        lowmem = AgglomerativeClustering(backend="nn_chain_lowmem").fit(vectors)
        assert np.all(np.diff(lowmem.merge_distances) >= 0.0)


class TestTileInvariance:
    """Tiling is a pure memory knob: every tile size gives the same answer."""

    TILES = [13, 64, 100, 1024]

    @pytest.mark.parametrize("linkage", [Linkage.SINGLE, Linkage.COMPLETE])
    def test_min_max_scans_are_bitwise_tile_invariant(self, linkage, rng):
        # min/max reductions are order-insensitive, so the merge history is
        # bit-for-bit identical across tile sizes.
        vectors = rng.normal(size=(150, 6))
        reference = AgglomerativeClustering(
            linkage=linkage, backend="nn_chain_lowmem", tile_size=self.TILES[0]
        ).fit(vectors)
        for tile in self.TILES[1:]:
            other = AgglomerativeClustering(
                linkage=linkage, backend="nn_chain_lowmem", tile_size=tile
            ).fit(vectors)
            assert np.array_equal(reference.merges, other.merges)

    @pytest.mark.parametrize("linkage", REDUCIBLE_LINKAGES)
    def test_cuts_are_tile_invariant(self, linkage, rng):
        # Average sums accumulate tile by tile, so heights may differ by fp
        # noise across tile sizes — but every cut must be the same partition.
        vectors = rng.normal(size=(150, 6))
        fits = [
            AgglomerativeClustering(
                linkage=linkage, backend="nn_chain_lowmem", tile_size=tile
            ).fit(vectors)
            for tile in self.TILES
        ]
        for other in fits[1:]:
            assert np.allclose(
                fits[0].merge_distances, other.merge_distances, atol=1e-9
            )
            for k in (2, 5, 20, 75):
                assert partitions_equal(
                    fits[0].labels_at_num_clusters(k),
                    other.labels_at_num_clusters(k),
                )


class TestTies:
    @pytest.mark.parametrize("linkage", REDUCIBLE_LINKAGES)
    def test_duplicate_points_all_cuts_valid(self, linkage):
        # Exact ties (duplicate observations) make the hierarchy ambiguous:
        # the lowmem backend — like any pair of valid agglomerative
        # implementations — may break them differently from the oracle, so only
        # cut validity is asserted, not cross-backend equality.
        rng = np.random.default_rng(7)
        base = rng.normal(size=(6, 3))
        vectors = np.vstack([base, base, base])
        n = vectors.shape[0]
        lowmem = AgglomerativeClustering(
            linkage=linkage, backend="nn_chain_lowmem"
        ).fit(vectors)
        assert np.all(np.diff(lowmem.merge_distances) >= -1e-12)
        for k in (1, 2, 6, n):
            labels = lowmem.labels_at_num_clusters(k)
            assert np.unique(labels).size == k
        # The six triplet groups merge at distance zero regardless of how
        # the ties were broken.
        assert np.allclose(lowmem.merge_distances[: 2 * 6], 0.0)
