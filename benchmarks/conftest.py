"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one table or figure of the paper on a shared
synthetic scenario (the "benchmark city"): 300 towers, 28 days — large enough
for all qualitative shapes to be stable, small enough for the whole harness to
run in a couple of minutes.  The fitted model is shared so individual
benchmarks time only their own analysis step.

The files are named ``bench_*.py``, which pytest does not collect by
default.  Run them (``bench_cluster_memory.py`` is a sweep by hand) with::

    pytest -o python_files="bench_*.py" benchmarks \
        --ignore=benchmarks/bench_cluster_memory.py --benchmark-only

or, to run each once untimed (as CI does), ``--benchmark-disable`` in
place of ``--benchmark-only``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import ModelConfig
from repro.core.model import TrafficPatternModel
from repro.core.results import ModelResult
from repro.synth.scenario import Scenario, ScenarioConfig, generate_scenario

#: Scale of the shared benchmark scenario.
BENCH_NUM_TOWERS = 300
BENCH_NUM_DAYS = 28
BENCH_SEED = 2015  # the paper's publication year


@pytest.fixture(scope="session")
def bench_scenario() -> Scenario:
    """The shared 300-tower, 28-day synthetic scenario."""
    return generate_scenario(
        ScenarioConfig(
            num_towers=BENCH_NUM_TOWERS,
            num_users=2_000,
            num_days=BENCH_NUM_DAYS,
            seed=BENCH_SEED,
        )
    )


@pytest.fixture(scope="session")
def bench_model(bench_scenario: Scenario) -> TrafficPatternModel:
    """The end-to-end model fitted once on the benchmark scenario."""
    model = TrafficPatternModel(ModelConfig(max_clusters=10))
    model.fit(bench_scenario.traffic, city=bench_scenario.city)
    return model


@pytest.fixture(scope="session")
def bench_result(bench_model: TrafficPatternModel) -> ModelResult:
    """The fitted model's result object."""
    return bench_model.result


@pytest.fixture(scope="session")
def cluster_series(bench_result: ModelResult) -> dict[int, np.ndarray]:
    """Aggregate raw traffic series per identified cluster."""
    return {
        label: bench_result.cluster_aggregate(label)
        for label in range(bench_result.num_clusters)
    }


def print_section(title: str) -> None:
    """Print a visual separator used by every benchmark report."""
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)
