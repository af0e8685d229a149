"""Peak extra memory of the clustering backends, measured with tracemalloc.

Both backends fit the same Ward problems (48-dimensional features at 1,500
and 6,000 towers; the feature matrix is allocated before tracing starts):

* ``nn_chain`` agglomerates on the square distance matrix in place, so its
  peak is that one ``n² × 8``-byte array plus O(n) buffers;
* ``nn_chain_lowmem`` builds no pairwise matrix: at the largest size its
  peak stays below 10% of the condensed footprint ``n(n-1)/2 × 8`` bytes,
  and across sizes it grows like O(n·d), not O(n²).

Larger sweeps (e.g. 50,000 towers) run by hand with
``benchmarks/bench_cluster_memory.py``.
"""

import tracemalloc

import numpy as np
import pytest

from repro.cluster.hierarchical import AgglomerativeClustering
from repro.cluster.linkage import Linkage

SIZES = (1_500, 6_000)
VECTOR_DIM = 48
BACKENDS = ("nn_chain", "nn_chain_lowmem")


def _fit_peak(backend: str, features: np.ndarray) -> tuple[int, np.ndarray]:
    """Peak traced bytes of one fit, and its merge matrix."""
    clusterer = AgglomerativeClustering(linkage=Linkage.WARD, backend=backend)
    tracemalloc.start()
    try:
        dendrogram = clusterer.fit(features)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, dendrogram.merges


@pytest.fixture(scope="module")
def fits():
    rng = np.random.default_rng(2015)
    results = {}
    for n in SIZES:
        features = rng.normal(size=(n, VECTOR_DIM))
        results[n] = {backend: _fit_peak(backend, features) for backend in BACKENDS}
    return results


@pytest.mark.parametrize("n", SIZES)
def test_nn_chain_peak_is_its_square_matrix(fits, n):
    peak, _ = fits[n]["nn_chain"]
    assert peak <= 1.1 * n * n * 8


def test_lowmem_peak_is_a_small_fraction_of_the_condensed_footprint(fits):
    n = max(SIZES)
    peak, _ = fits[n]["nn_chain_lowmem"]
    assert peak < 0.10 * (n * (n - 1) // 2 * 8)


def test_lowmem_peak_grows_subquadratically(fits):
    small, large = min(SIZES), max(SIZES)
    exponent = np.log(
        fits[large]["nn_chain_lowmem"][0] / fits[small]["nn_chain_lowmem"][0]
    ) / np.log(large / small)
    assert exponent <= 1.6


@pytest.mark.parametrize("n", SIZES)
def test_backends_agree_on_the_merge_heights(fits, n):
    chain = fits[n]["nn_chain"][1]
    lowmem = fits[n]["nn_chain_lowmem"][1]
    assert np.allclose(chain[:, 2], lowmem[:, 2], rtol=1e-6)
