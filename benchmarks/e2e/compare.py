"""Verdicts on two sets of runs: improved, no change, regressed or unresolved.

For each workload × end-to-end metric of ``BENCHMARK.json``, with the
metric's bound ``b`` (a share of the base median) and direction:

* **unresolved** — either side's quartile spread exceeds ``b``, unless
  every new run is better than every base run (then **improved**);
* **improved** — every new run is better than every base run and the
  medians differ by more than the base runs' inter-quartile distance;
* **regressed** — the new median is worse than the base median by more
  than ``b``;
* **no change** — otherwise.

Runs are matched by workload; runs whose inputs' SHA-256 differs for the
same workload and seed make the comparison meaningless and are refused.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Sequence

from benchmarks.e2e.analysis import quartile_spread

IMPROVED, NO_CHANGE, REGRESSED, UNRESOLVED = "improved", "no change", "regressed", "unresolved"


def verdict(base: Sequence[float], new: Sequence[float], bound: float, better: str) -> str:
    """Classify ``new`` against ``base`` for one metric (see module docstring)."""
    sign = 1.0 if better == "higher" else -1.0
    all_better = min(sign * v for v in new) > max(sign * v for v in base)
    if quartile_spread(base) > bound or quartile_spread(new) > bound:
        return IMPROVED if all_better else UNRESOLVED
    base_median, new_median = statistics.median(base), statistics.median(new)
    q1, _, q3 = statistics.quantiles(base, n=4)
    if all_better and abs(new_median - base_median) > q3 - q1:
        return IMPROVED
    if sign * (base_median - new_median) > bound * abs(base_median):
        return REGRESSED
    return NO_CHANGE


def _runs(path: Path) -> list[dict]:
    return [run for run in json.loads(path.read_text())["runs"] if not run["trace"]]


def _input_conflicts(base: list[dict], new: list[dict]) -> list[str]:
    seen = {(run["workload"], run["seed"]): run["inputs_sha256"] for run in base}
    return sorted(
        f"{run['workload']} seed {run['seed']}"
        for run in new
        if seen.get((run["workload"], run["seed"]), run["inputs_sha256"])
        != run["inputs_sha256"]
    )


def compare_runs(base: list[dict], new: list[dict], benchmark: dict) -> list[tuple]:
    """``(workload, metric, base median, new median, change, verdict)`` rows."""
    rows = []
    workloads = [w["name"] for w in benchmark["workloads"]]
    for workload in workloads:
        base_runs = [run for run in base if run["workload"] == workload]
        new_runs = [run for run in new if run["workload"] == workload]
        if not base_runs or not new_runs:
            continue
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            base_values = [run["metrics"][name]["value"] for run in base_runs]
            new_values = [run["metrics"][name]["value"] for run in new_runs]
            base_median = statistics.median(base_values)
            new_median = statistics.median(new_values)
            change = (new_median - base_median) / base_median if base_median else 0.0
            rows.append((workload, name, base_median, new_median, change,
                         verdict(base_values, new_values, metric["bound"],
                                 metric["better"])))
    return rows


def compare_files(base_path: Path, new_path: Path, benchmark_path: Path) -> int:
    """Print the verdict table; 1 on any regression, 2 on mismatched inputs."""
    benchmark = json.loads(benchmark_path.read_text())
    base, new = _runs(base_path), _runs(new_path)
    conflicts = _input_conflicts(base, new)
    if conflicts:
        print("inputs differ between the two sides for: " + ", ".join(conflicts))
        return 2
    rows = compare_runs(base, new, benchmark)
    print(f"{'workload':<20} {'metric':<18} {'base':>12} {'new':>12} {'change':>8}  verdict")
    for workload, name, base_median, new_median, change, outcome in rows:
        print(f"{workload:<20} {name:<18} {base_median:>12.6g} {new_median:>12.6g} "
              f"{change:>+7.1%}  {outcome}")
    return 1 if any(row[-1] == REGRESSED for row in rows) else 0
