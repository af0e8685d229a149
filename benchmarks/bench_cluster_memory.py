"""Clustering memory sweep — the square-matrix nn_chain vs nn_chain_lowmem.

Fits the same tower feature matrices through the ``nn_chain`` backend
(which builds the square distance matrix and agglomerates on it in place)
and the memory-bounded ``nn_chain_lowmem`` backend (blocked on-the-fly
distances, O(n·d + tile²) peak), measuring the *extra* peak memory of each
fit with :mod:`tracemalloc` (the feature matrix itself is allocated before
tracing starts) plus process-lifetime peak RSS, and emits a JSON summary.

The same two gates as ``tests/test_cluster_memory.py`` (which runs them at
1,500 and 6,000 towers on every test run) are checked at whatever sizes the
sweep covers:

* at the largest size, the lowmem backend's peak extra memory must stay
  below 10% of the condensed footprint ``n(n-1)/2 × 8`` bytes (at
  n = 100k that footprint is ~40 GB; the lowmem peak stays in the tens of
  MB);
* across sizes the lowmem peak must grow like O(n·d), not O(n²): the
  measured growth exponent is capped well below quadratic.

``nn_chain`` only runs where its ``n² × 8``-byte matrix actually fits
(``BENCH_CLUSTER_MEMORY_CONDENSED_CAP``, default 8,000 towers ≈ 0.5 GB);
beyond the cap it is skipped.  Larger sweeps — e.g. the 50k-tower run
showing a ~10 GB condensed footprint against a < 100 MB lowmem peak — are
one env var away.

Run by hand with::

    PYTHONPATH=src python -m pytest benchmarks/bench_cluster_memory.py -s

    # city-scale demonstration (Ward, ~minutes):
    BENCH_CLUSTER_MEMORY_SIZES=10000,50000 \\
        PYTHONPATH=src python -m pytest benchmarks/bench_cluster_memory.py -s
"""

import json
import os
import resource
import time
import tracemalloc

import numpy as np

from benchmarks.conftest import print_section
from repro.cluster.hierarchical import AgglomerativeClustering
from repro.cluster.linkage import Linkage
from repro.viz.tables import format_table

SIZES = tuple(
    int(value)
    for value in os.environ.get("BENCH_CLUSTER_MEMORY_SIZES", "1500,6000").split(",")
)
VECTOR_DIM = int(os.environ.get("BENCH_CLUSTER_MEMORY_DIM", "48"))
LINKAGE = Linkage(os.environ.get("BENCH_CLUSTER_MEMORY_LINKAGE", "ward"))
TILE_SIZE = int(os.environ.get("BENCH_CLUSTER_MEMORY_TILE", "1024"))
#: Largest n at which nn_chain is actually run (its square matrix is
#: n² × 8 bytes — 0.5 GB at the default cap).
CONDENSED_CAP = int(os.environ.get("BENCH_CLUSTER_MEMORY_CONDENSED_CAP", "8000"))
#: The lowmem peak must stay below this fraction of the condensed footprint
#: at the largest benchmarked size.
MAX_FOOTPRINT_FRACTION = float(
    os.environ.get("BENCH_CLUSTER_MEMORY_MAX_FRACTION", "0.10")
)
#: Peak-growth exponent cap: O(n·d)-ish growth measures ≈ 1 (or below, while
#: tile buffers dominate); the O(n²) backends measure ≈ 2.
MAX_GROWTH_EXPONENT = float(
    os.environ.get("BENCH_CLUSTER_MEMORY_MAX_EXPONENT", "1.6")
)


def condensed_bytes(n: int) -> int:
    """Footprint of the condensed distance array (half the square matrix)."""
    return n * (n - 1) // 2 * 8


def measure_fit(backend_name: str, features: np.ndarray) -> dict:
    """Fit one backend, returning peak extra tracemalloc bytes and timing."""
    clusterer = AgglomerativeClustering(
        linkage=LINKAGE, backend=backend_name, tile_size=TILE_SIZE
    )
    tracemalloc.start()
    start = time.perf_counter()
    dendrogram = clusterer.fit(features)
    elapsed = time.perf_counter() - start
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    n = features.shape[0]
    assert dendrogram.merges.shape == (n - 1, 4)
    return {
        "peak_extra_bytes": int(peak),
        "seconds": elapsed,
        "towers_per_second": n / elapsed,
        "merge_checksum": float(dendrogram.merges[:, 2].sum()),
    }


def run_sweep() -> dict:
    rng = np.random.default_rng(2015)
    results: dict[int, dict] = {}
    for n in SIZES:
        features = rng.normal(size=(n, VECTOR_DIM))
        row: dict[str, object] = {"condensed_bytes": condensed_bytes(n)}
        row["nn_chain_lowmem"] = measure_fit("nn_chain_lowmem", features)
        if n <= CONDENSED_CAP:
            row["nn_chain"] = measure_fit("nn_chain", features)
        results[n] = row
    return results


def test_cluster_memory_scaling():
    results = run_sweep()

    print_section(
        "Memory-bounded clustering — nn_chain vs nn_chain_lowmem"
    )
    mib = 1024.0 * 1024.0
    rows = []
    for n, row in results.items():
        lowmem = row["nn_chain_lowmem"]
        dense = row.get("nn_chain")
        rows.append(
            [
                n,
                f"{row['condensed_bytes'] / mib:,.1f}",
                f"{dense['peak_extra_bytes'] / mib:,.1f}" if dense else "(skipped)",
                f"{lowmem['peak_extra_bytes'] / mib:,.1f}",
                f"{lowmem['towers_per_second']:,.0f}",
            ]
        )
    print(
        format_table(
            [
                "towers",
                "condensed MiB",
                "nn_chain peak MiB",
                "lowmem peak MiB",
                "lowmem towers/s",
            ],
            rows,
        )
    )

    summary = {
        "linkage": LINKAGE.value,
        "vector_dim": VECTOR_DIM,
        "tile_size": TILE_SIZE,
        "peak_rss_bytes": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024,
        "results": {str(n): row for n, row in results.items()},
    }
    print("\nJSON summary:")
    print(json.dumps(summary, indent=2, sort_keys=True))

    # Gate 1 — the memory-bounded claim: at the largest size the lowmem peak
    # is a small fraction of the condensed array the O(n²) backends need.
    largest = max(results)
    lowmem_peak = results[largest]["nn_chain_lowmem"]["peak_extra_bytes"]
    budget = MAX_FOOTPRINT_FRACTION * results[largest]["condensed_bytes"]
    assert lowmem_peak < budget, (
        f"lowmem peak {lowmem_peak / mib:.1f} MiB at n={largest} exceeds "
        f"{MAX_FOOTPRINT_FRACTION:.0%} of the {results[largest]['condensed_bytes'] / mib:.1f} MiB "
        f"condensed footprint"
    )

    # Gate 2 — growth is ~O(n·d), not O(n²): the measured exponent between
    # the smallest and largest size stays well below quadratic.  (While the
    # constant tile buffers dominate, the exponent is near zero.)
    smallest = min(results)
    if largest > smallest:
        small_peak = results[smallest]["nn_chain_lowmem"]["peak_extra_bytes"]
        exponent = np.log(lowmem_peak / small_peak) / np.log(largest / smallest)
        assert exponent <= MAX_GROWTH_EXPONENT, (
            f"lowmem peak grew as n^{exponent:.2f} between n={smallest} and "
            f"n={largest}; expected ~O(n·d) growth (exponent <= "
            f"{MAX_GROWTH_EXPONENT})"
        )

    # Sanity — where both backends ran, they agree on the merge heights.
    for n, row in results.items():
        dense = row.get("nn_chain")
        if dense is not None:
            assert np.isclose(
                dense["merge_checksum"],
                row["nn_chain_lowmem"]["merge_checksum"],
                rtol=1e-6,
            ), f"backend merge histories diverged at n={n}"
