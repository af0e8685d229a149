"""Ablation A4 — scalability of the end-to-end pipeline with the number of towers.

Times the full staged fit (vectorize → cluster → tune → label → spectral →
decompose) for increasing city sizes, checks that the identified structure
(five patterns) is stable across scales, and reports the per-stage wall-clock breakdown recorded by the
pipeline engine at the largest size.
"""

import time

from benchmarks.conftest import print_section
from repro.core.config import ModelConfig
from repro.core.model import TrafficPatternModel
from repro.synth.scenario import ScenarioConfig, generate_scenario
from repro.viz.tables import format_table

SIZES = (100, 200, 400)
BACKENDS = ("nn_chain",)


def fit_at_scale(scenario, backend):
    start = time.perf_counter()
    model = TrafficPatternModel(ModelConfig(max_clusters=8, cluster_backend=backend))
    result = model.fit(scenario.traffic, city=scenario.city)
    elapsed = time.perf_counter() - start
    return result.num_clusters, elapsed, result.extras["stage_timings"]


def run_sweep():
    results = {}
    for size in SIZES:
        scenario = generate_scenario(
            ScenarioConfig(num_towers=size, num_users=500, num_days=28, seed=77)
        )
        results[size] = {
            backend: fit_at_scale(scenario, backend) for backend in BACKENDS
        }
    return results


def test_scalability_pipeline(benchmark):
    results = benchmark.pedantic(run_sweep, rounds=1, iterations=1)

    print_section("Ablation A4 — pipeline runtime vs number of towers")
    rows = []
    for size, per_backend in results.items():
        for backend, (k, seconds, _) in per_backend.items():
            rows.append([size, backend, k, round(seconds, 3)])
    print(format_table(["towers", "backend", "clusters found", "fit seconds"], rows))

    largest = SIZES[-1]
    _, _, stage_timings = results[largest]["nn_chain"]
    print(f"\nper-stage breakdown at {largest} towers (nn_chain backend):")
    print(
        format_table(
            ["stage", "seconds"],
            [[name, round(seconds, 3)] for name, seconds in stage_timings.items()],
        )
    )

    # The five-pattern structure is stable across scales.
    for size, per_backend in results.items():
        for backend, (k, _, _) in per_backend.items():
            assert k == 5, f"expected 5 patterns at {size} towers ({backend}), got {k}"

    # Runtime grows sub-cubically over this range (sanity guard, generous).
    small = results[SIZES[0]]["nn_chain"][1]
    large = results[SIZES[-1]]["nn_chain"][1]
    assert large < small * ((SIZES[-1] / SIZES[0]) ** 3.5)
