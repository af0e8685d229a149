"""nn_chain against its oracles: the gather-and-scatter chain and analytic merges.

``tests/oracles/nn_chain.py`` keeps the chain as it ran before merges updated
whole rows, with its union-find canonicalisation.  The whole-row update must
give every finite entry the same bits, so the merge tables are byte-identical
and the chain takes the same number of steps.  The one difference is on
purpose: rounding on tied distances can leave a merge an ulp below a merge
that built one of its inputs.  The union-find then named a cluster that never
formed and recorded sizes that do not add up; ``_canonicalize`` first lifts
such a merge to its input's height (``lift_heights`` is the sequential
oracle of that step).  On tie-free inputs nothing is lifted and the tables
equal the old ones.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.nn_chain import canonicalize, chain_log, lift_heights
from repro.cluster.backends import nn_chain
from repro.cluster.backends.nn_chain import NNChainBackend, _canonicalize
from repro.cluster.backends.nn_chain_lowmem import NNChainLowMemBackend
from repro.cluster.distance import euclidean_distance_matrix
from repro.cluster.hierarchical import AgglomerativeClustering, Dendrogram
from repro.cluster.linkage import Linkage
from repro.synth.scenario import ScenarioConfig, generate_scenario
from repro.vectorize.vectorizer import TrafficVectorizer


def oracle_merges(square, linkage):
    """``(merges, chain_steps, lifted)`` of the gather chain on a copy of ``square``."""
    n = square.shape[0]
    slot_a, slot_b, heights, sizes, steps = chain_log(square.copy(), linkage)
    keys = lift_heights(slot_a, slot_b, heights, n)
    merges = canonicalize(slot_a, slot_b, keys, sizes, n)
    return merges, steps, keys.tobytes() != heights.tobytes()


def assert_matches_oracle(square, linkage):
    """Assert byte-identical merges and equal chain steps; return whether lifted."""
    backend = NNChainBackend()
    merges = backend.consume_square(square.copy(), linkage)
    expected, steps, lifted = oracle_merges(square, linkage)
    assert merges.tobytes() == expected.tobytes()
    assert backend.last_stats == {"merges": square.shape[0] - 1, "chain_steps": steps}
    return lifted


@st.composite
def distance_matrices(draw):
    """``(square, tie_free)``: 2–150 points in 1–8 dimensions.

    Every one of ``distinct`` base points appears and the rest repeat them,
    so points repeat unless ``distinct`` is ``n``; ``lattice`` rounds them
    to a half-integer grid.  Either makes distances tie.  ``negative_zeros``
    writes −0.0 over some zero distances, as a precomputed matrix may hold
    them.
    """
    n = draw(st.integers(2, 150))
    dims = draw(st.integers(1, 8))
    distinct = draw(st.integers(1, n))
    lattice = draw(st.booleans())
    negative_zeros = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = rng.normal(size=(distinct, dims))
    if lattice:
        base = np.round(2.0 * base) / 2.0
    picks = np.concatenate([np.arange(distinct), rng.integers(0, distinct, size=n - distinct)])
    square = euclidean_distance_matrix(base[rng.permutation(picks)])
    if negative_zeros:
        flip = np.triu(rng.random((n, n)) < 0.5)
        square[(flip | flip.T) & (square == 0.0)] = -0.0
    return square, distinct == n and not lattice


class TestGatherOracle:
    @settings(max_examples=60, deadline=None)
    @given(case=distance_matrices())
    def test_merges_are_byte_identical(self, case):
        square, tie_free = case
        for linkage in Linkage:
            lifted = assert_matches_oracle(square, linkage)
            if tie_free:
                assert not lifted

    def test_negative_zero_heights_survive(self):
        square = np.array(
            [[0.0, -0.0, 2.0, 3.0], [-0.0, 0.0, 2.0, 3.0], [2.0, 2.0, 0.0, -0.0], [3.0, 3.0, -0.0, 0.0]]
        )
        for linkage in (Linkage.SINGLE, Linkage.COMPLETE, Linkage.AVERAGE):
            merges = NNChainBackend().consume_square(square.copy(), linkage)
            assert np.signbit(merges[:2, 2]).all()
            assert_matches_oracle(square, linkage)

    def test_scenario_vectors(self):
        scenario = generate_scenario(ScenarioConfig(num_towers=1_200, num_days=7, seed=2015))
        vectors = TrafficVectorizer().from_matrix(scenario.traffic).vectors
        square = euclidean_distance_matrix(vectors)
        assert square.shape == (1_200, 1_200)
        for linkage in Linkage:
            assert not assert_matches_oracle(square, linkage)

    def test_tied_log_is_lifted_into_a_consistent_table(self):
        # Single linkage recurs d({0,1}, 2) = 0.5·2 + 0.5·√2 − 0.5·(2 − √2),
        # an ulp below √2: the second merge lands under the first.
        points = np.array([[-1.0, 2.0], [0.0, 1.0], [-1.0, 0.0]])
        square = euclidean_distance_matrix(points)
        slot_a, slot_b, heights, sizes, _ = chain_log(square.copy(), Linkage.SINGLE)
        assert heights[1] < heights[0]
        union_find = canonicalize(slot_a, slot_b, heights, sizes, 3)
        assert union_find[:, [0, 1, 3]].tolist() == [[1, 2, 3], [0, 3, 2]]
        merges = NNChainBackend().consume_square(square.copy(), Linkage.SINGLE)
        assert merges[:, [0, 1, 3]].tolist() == [[0, 1, 2], [2, 3, 3]]
        assert merges[:, 2].tolist() == [heights[0], heights[0]]


def random_log(rng, n, heights):
    """A chain-order merge log over ``n`` slots: slot b retires into slot a."""
    live = list(range(n))
    size = [1] * n
    slot_a, slot_b, merged = [], [], []
    for _ in range(n - 1):
        i, j = rng.choice(len(live), size=2, replace=False)
        a, b = live[i], live[j]
        size[a] += size[b]
        slot_a.append(a)
        slot_b.append(b)
        merged.append(size[a])
        live.remove(b)
    return np.array(slot_a), np.array(slot_b), np.asarray(heights, dtype=float), np.array(merged)


class TestCanonicalize:
    """The vectorised lookup equals the union-find on the lifted log."""

    @staticmethod
    def assert_equals_union_find(log, n):
        slot_a, slot_b, heights, sizes = log
        keys = lift_heights(slot_a, slot_b, heights, n)
        expected = canonicalize(slot_a, slot_b, keys, sizes, n)
        assert _canonicalize(slot_a, slot_b, heights, sizes, n).tobytes() == expected.tobytes()
        Dendrogram(merges=expected, num_observations=n)

    @pytest.mark.parametrize("backend", [NNChainBackend, NNChainLowMemBackend])
    @pytest.mark.parametrize("linkage", list(Linkage))
    def test_chain_logs_of_both_engines(self, backend, linkage, monkeypatch):
        logs = []

        def capture(slot_a, slot_b, heights, sizes, n):
            logs.append((slot_a.copy(), slot_b.copy(), heights.copy(), sizes.copy(), n))
            return _canonicalize(slot_a, slot_b, heights, sizes, n)

        monkeypatch.setattr(nn_chain, "_canonicalize", capture)
        rng = np.random.default_rng(31)
        # The rounded points tie.
        inputs = [rng.normal(size=(n, 3)) for n in (2, 40, 90)]
        inputs.append(np.round(rng.normal(size=(40, 3))))
        for points in inputs:
            backend().compute_merges_from_features(points, linkage)
        assert len(logs) == len(inputs)
        for *log, n in logs:
            self.assert_equals_union_find(log, n)

    @pytest.mark.parametrize("seed", range(5))
    def test_equal_heights_keep_chain_order(self, seed):
        rng = np.random.default_rng(seed)
        n = 60
        log = random_log(rng, n, np.full(n - 1, 1.5))
        self.assert_equals_union_find(log, n)
        merges = _canonicalize(*log, n)
        assert merges[:, 3].tolist() == log[3].tolist()
        assert merges.tobytes() == canonicalize(*log, n).tobytes()

    @pytest.mark.parametrize("seed", range(5))
    def test_few_distinct_heights_in_any_order(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = 60
        log = random_log(rng, n, rng.integers(0, 3, size=n - 1))
        self.assert_equals_union_find(log, n)


#: Collinear points whose clusters grow by one point per merge under every
#: linkage: each next point is farther from the cluster than any two inside.
COLLINEAR = np.array([0.0, 1.0, 3.0, 7.0, 15.0, 31.0])


def ward_heights(points):
    """√(2·nₐ·n_b/(nₐ+n_b))·|cₐ − c_b| for the prefix cluster and the next point."""
    return [
        np.sqrt(2.0 * k / (k + 1)) * abs(points[:k].mean() - points[k])
        for k in range(1, points.size)
    ]


ANALYTIC_HEIGHTS = {
    Linkage.SINGLE: [1, 2, 4, 8, 16],
    Linkage.COMPLETE: [1, 3, 7, 15, 31],
    Linkage.AVERAGE: [1, 5 / 2, 17 / 3, 49 / 4, 129 / 5],
    Linkage.WARD: ward_heights(COLLINEAR),
}


class TestAnalyticOracle:
    @pytest.mark.parametrize("backend", ["nn_chain", "nn_chain_lowmem"])
    @pytest.mark.parametrize("linkage", list(Linkage))
    def test_collinear_points_merge_as_one_growing_cluster(self, backend, linkage):
        dendrogram = AgglomerativeClustering(linkage=linkage, backend=backend).fit(
            COLLINEAR[:, None]
        )
        merges = dendrogram.merges
        assert merges[:, :2].tolist() == [[0, 1], [2, 6], [3, 7], [4, 8], [5, 9]]
        assert merges[:, 3].tolist() == [2, 3, 4, 5, 6]
        np.testing.assert_allclose(merges[:, 2], ANALYTIC_HEIGHTS[linkage], rtol=1e-12, atol=0)
