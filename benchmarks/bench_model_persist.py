"""Model persistence — save/load/query latency and update-vs-refit speedup.

Exercises the fit-once / query-many / update-daily serving plane end to end
on a synthetic multi-day columnar trace:

* **full refit** — ``fit_batches`` over all ``D`` days (the baseline an
  operator without persistent artifacts pays every morning);
* **incremental** — ``fit_batches`` over ``D-1`` days once (excluded from
  the timing), then ``save`` → ``load`` → ``update`` with the final day;
* **serving** — the time to open a
  :class:`~repro.io.server.ModelServer` on the saved bundle (load plus the
  one whole-city decomposition), then decompose / pattern lookup latency.

Asserts the update path is at least ``BENCH_PERSIST_MIN_SPEEDUP``× faster
than the full refit while producing a bit-for-bit identical aggregate
matrix and identical cluster cuts, and prints a JSON summary.  Scale is
configurable so CI can run a quick smoke::

    PYTHONPATH=src python -m pytest benchmarks/bench_model_persist.py -s
    BENCH_PERSIST_RECORDS_PER_DAY=20000 PYTHONPATH=src python -m pytest \
        benchmarks/bench_model_persist.py -s
"""

import json
import os
import time

import numpy as np

from benchmarks.conftest import print_section
from repro.core.config import ModelConfig
from repro.core.model import TrafficPatternModel
from repro.ingest.batch import RecordBatch
from repro.io.server import ModelServer
from repro.utils.timeutils import SECONDS_PER_DAY, SLOT_SECONDS, TimeWindow
from repro.viz.tables import format_table

RECORDS_PER_DAY = int(os.environ.get("BENCH_PERSIST_RECORDS_PER_DAY", "150000"))
NUM_DAYS = int(os.environ.get("BENCH_PERSIST_DAYS", "7"))
NUM_TOWERS = int(os.environ.get("BENCH_PERSIST_TOWERS", "100"))
MIN_SPEEDUP = float(os.environ.get("BENCH_PERSIST_MIN_SPEEDUP", "2"))
QUERY_TOWERS = 50

WINDOW = TimeWindow(num_days=NUM_DAYS)
TOWER_IDS = list(range(NUM_TOWERS))


def build_day(rng: np.random.Generator, day: int) -> RecordBatch:
    """One synthetic day of clean records in columnar form."""
    n = RECORDS_PER_DAY
    starts = rng.uniform(day * SECONDS_PER_DAY, (day + 1) * SECONDS_PER_DAY, size=n)
    durations = rng.exponential(0.6 * SLOT_SECONDS, size=n)
    return RecordBatch(
        user_id=rng.integers(0, 50_000, size=n),
        tower_id=rng.integers(0, NUM_TOWERS, size=n),
        start_s=starts,
        end_s=np.minimum(starts + durations, float(WINDOW.num_seconds)),
        bytes_used=rng.lognormal(9.0, 1.0, size=n),
        network=np.zeros(n, dtype=np.uint8),
    )


def run_comparison(tmp_path):
    rng = np.random.default_rng(2015)
    days = [build_day(rng, day) for day in range(NUM_DAYS)]
    config = ModelConfig(num_clusters=5)

    # Baseline: the full refit an artifact-less pipeline pays for every query
    # session (aggregate all D days + the six-stage fit).
    start = time.perf_counter()
    full = TrafficPatternModel(config)
    full_result = full.fit_batches(days, WINDOW, TOWER_IDS)
    refit_seconds = time.perf_counter() - start

    # Incremental path: the first D-1 days were fitted yesterday (excluded
    # from the timing); today we load the bundle and fold in one fresh day.
    incremental = TrafficPatternModel(config)
    incremental.fit_batches(days[:-1], WINDOW, TOWER_IDS)
    bundle = tmp_path / "bundle"

    start = time.perf_counter()
    incremental.save(bundle)
    save_seconds = time.perf_counter() - start

    start = time.perf_counter()
    reloaded = TrafficPatternModel.load(bundle)
    load_seconds = time.perf_counter() - start

    start = time.perf_counter()
    update_result = reloaded.update(days[-1])
    update_seconds = time.perf_counter() - start

    assert np.array_equal(
        full_result.vectorized.raw.traffic, update_result.vectorized.raw.traffic
    ), "incremental aggregate diverged from the full refit"
    assert np.array_equal(full_result.labels, update_result.labels), (
        "incremental cluster cut diverged from the full refit"
    )

    # Serving latency from the persisted bundle.
    reloaded.save(bundle)
    start = time.perf_counter()
    server = ModelServer.from_artifact(bundle)
    open_seconds = time.perf_counter() - start
    towers = server.tower_ids()[:QUERY_TOWERS]

    start = time.perf_counter()
    for tower_id in towers:
        server.decompose(tower_id)
    decompose_us = (time.perf_counter() - start) / len(towers) * 1e6

    start = time.perf_counter()
    for tower_id in towers:
        server.pattern_of(tower_id)
    pattern_us = (time.perf_counter() - start) / len(towers) * 1e6

    return {
        "records_per_day": RECORDS_PER_DAY,
        "num_days": NUM_DAYS,
        "num_towers": NUM_TOWERS,
        "refit_seconds": refit_seconds,
        "save_seconds": save_seconds,
        "load_seconds": load_seconds,
        "update_seconds": update_seconds,
        "update_speedup": refit_seconds / update_seconds,
        "server_open_seconds": open_seconds,
        "decompose_us": decompose_us,
        "pattern_us": pattern_us,
    }


def test_model_persist(benchmark, tmp_path):
    results = benchmark.pedantic(run_comparison, args=(tmp_path,), rounds=1, iterations=1)

    print_section("Model persistence — save/load/query latency and update speedup")
    print(
        format_table(
            ["operation", "cost"],
            [
                ["full refit", f"{results['refit_seconds'] * 1e3:,.0f} ms"],
                ["save bundle", f"{results['save_seconds'] * 1e3:,.0f} ms"],
                ["load bundle", f"{results['load_seconds'] * 1e3:,.0f} ms"],
                ["update (1 day)", f"{results['update_seconds'] * 1e3:,.0f} ms"],
                ["open server", f"{results['server_open_seconds'] * 1e3:,.0f} ms"],
                ["decompose lookup", f"{results['decompose_us']:,.0f} us/query"],
                ["pattern lookup", f"{results['pattern_us']:,.0f} us/query"],
            ],
        )
    )
    print(
        f"\nupdate-vs-refit speedup: {results['update_speedup']:.1f}x on "
        f"{results['num_days']} days x {results['records_per_day']:,} records/day"
    )

    summary = {"min_speedup_required": MIN_SPEEDUP, **results}
    print("\nJSON summary:")
    print(json.dumps(summary, indent=2, sort_keys=True))

    assert results["update_speedup"] >= MIN_SPEEDUP, (
        f"incremental update is only {results['update_speedup']:.1f}x faster than a "
        f"full refit; expected >= {MIN_SPEEDUP}x"
    )
