"""Peak extra memory of the fit stages around clustering, with tracemalloc.

At the benchmark's widest size (1,200 towers × 1,008 slots, the grid and
the vectors allocated before tracing starts):

* ``spectral`` normalises the grid a block of rows at a time and keeps
  three DFT bins per tower, so its peak stays below 1 MiB;
* ``vectorize`` writes the z-scores into their one output buffer and takes
  the standard deviations by row blocks: its peak is at most 1.2× the
  output;
* ``tune`` gathers each dendrogram node's member rows once and takes their
  distances to the centroid by row blocks: its peak is at most 1.2× the
  largest node's copy.

``tests/test_cluster_memory.py`` bounds the clustering stage itself.
"""

import tracemalloc

import numpy as np
import pytest

from repro.cluster.hierarchical import AgglomerativeClustering
from repro.cluster.linkage import Linkage
from repro.cluster.tuner import MetricTuner
from repro.spectral.components import principal_components_for_window
from repro.spectral.features import extract_frequency_features
from repro.synth.traffic import TowerTrafficMatrix
from repro.utils.timeutils import TimeWindow
from repro.vectorize.normalize import NormalizationMethod
from repro.vectorize.vectorizer import TrafficVectorizer

NUM_TOWERS = 1_200
WINDOW = TimeWindow(num_days=7)
MIB = 1 << 20


def _peak(function, *args, **kwargs):
    """``(peak traced bytes, result)`` of one call."""
    tracemalloc.start()
    try:
        result = function(*args, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, result


@pytest.fixture(scope="module")
def matrix():
    """Five traffic profiles with per-slot noise, one tower a row."""
    rng = np.random.default_rng(2015)
    profiles = rng.lognormal(8.0, 1.0, size=(5, WINDOW.num_slots))
    grid = profiles[rng.integers(0, 5, size=NUM_TOWERS)]
    grid *= rng.lognormal(0.0, 0.3, size=grid.shape)
    grid[::50] = 0.0  # idle towers
    return TowerTrafficMatrix(tower_ids=np.arange(NUM_TOWERS), traffic=grid, window=WINDOW)


def test_spectral_peak_is_below_one_mib(matrix):
    components = principal_components_for_window(WINDOW)
    peak, features = _peak(
        extract_frequency_features, matrix.traffic, matrix.tower_ids, components
    )
    assert features.amplitudes.shape == (NUM_TOWERS, 3)
    assert peak <= MIB


def test_vectorize_peak_is_its_output(matrix):
    vectorizer = TrafficVectorizer(method=NormalizationMethod.ZSCORE)
    peak, vectorized = _peak(vectorizer.from_matrix, matrix)
    assert vectorized.vectors.nbytes == matrix.traffic.nbytes
    assert peak <= 1.2 * vectorized.vectors.nbytes


def test_tune_peak_is_its_largest_cluster_copy(matrix):
    vectors = TrafficVectorizer().from_matrix(matrix).vectors
    dendrogram = AgglomerativeClustering(linkage=Linkage.WARD).fit(vectors)
    tuner = MetricTuner(min_clusters=2, max_clusters=10)
    peak, (labels, curve) = _peak(tuner.select, vectors, dendrogram)
    # Every node the sweep scores is a cluster of some cut; the largest is
    # in the coarsest cut.
    coarsest = dendrogram.labels_at_num_clusters(int(curve.num_clusters.min()))
    largest_copy = np.bincount(coarsest).max() * vectors.shape[1] * vectors.itemsize
    assert peak <= 1.2 * largest_copy
