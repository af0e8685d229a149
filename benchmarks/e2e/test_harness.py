"""Tests of the end-to-end benchmark's own rules and of a smoke-scale run."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.e2e import ROOT, child_env
from benchmarks.e2e import serve
from benchmarks.e2e.hostspeed import REFERENCE_S, HostSpeed, scaled
from benchmarks.e2e.analysis import (
    covered_length,
    offline_layers,
    percentile,
    percentile_supported,
    quartile_spread,
    samples_beyond,
    self_time,
)
from benchmarks.e2e.compare import (
    IMPROVED,
    NO_CHANGE,
    REGRESSED,
    UNRESOLVED,
    compare_files,
    verdict,
)
from benchmarks.e2e.harness import END_TO_END, PER_LAYER, run_workload
from benchmarks.e2e.workloads import workloads

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


class TestPercentileRule:
    def test_p99_needs_ten_samples_beyond_it(self):
        assert samples_beyond(1000, 99) == 10
        assert percentile_supported(1000, 99)
        assert not percentile_supported(999, 99)
        assert percentile_supported(20, 50)
        assert not percentile_supported(19, 50)

    def test_nearest_rank(self):
        values = list(range(1, 101))
        assert percentile(values, 50) == 50
        assert percentile(values, 99) == 99
        assert percentile(values, 100) == 100
        assert percentile([7.0], 99) == 7.0
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_quartile_spread(self):
        assert quartile_spread([10.0] * 5) == 0.0
        assert quartile_spread([1.0]) == float("inf")
        # statistics.quantiles (exclusive): q1=1.5, median=3, q3=4.5.
        assert quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(1.0)


class TestVerdicts:
    base = [100.0, 101.0, 99.0, 100.5, 99.5]

    def test_no_change_within_bound(self):
        assert verdict(self.base, [104.0, 105.0, 103.0, 104.5], 0.1, "lower") == NO_CHANGE

    def test_regressed_beyond_bound(self):
        assert verdict(self.base, [115.0, 116.0, 114.0, 115.5], 0.1, "lower") == REGRESSED
        assert verdict(self.base, [85.0, 86.0, 84.0, 85.5], 0.1, "higher") == REGRESSED

    def test_improved_needs_every_run_better_and_clear_medians(self):
        assert verdict(self.base, [90.0, 91.0, 89.0, 90.5], 0.1, "lower") == IMPROVED
        assert verdict(self.base, [110.0, 111.0, 109.0], 0.1, "higher") == IMPROVED
        # Medians apart, but one new run is no better than the best base run.
        assert verdict(self.base, [95.0, 95.5, 99.2, 96.0, 95.2], 0.1, "lower") == NO_CHANGE

    def test_unresolved_when_spread_exceeds_bound(self):
        noisy = [60.0, 100.0, 140.0, 80.0, 120.0]
        assert verdict(self.base, noisy, 0.1, "lower") == UNRESOLVED
        assert verdict(noisy, self.base, 0.1, "lower") == UNRESOLVED
        # ... unless every new run beats every base run.
        assert verdict(noisy, [50.0, 55.0, 52.0], 0.1, "lower") == IMPROVED

    def test_single_runs_are_unresolved_unless_better(self):
        assert verdict([100.0], [101.0], 0.1, "lower") == UNRESOLVED
        assert verdict([100.0], [99.0], 0.1, "lower") == IMPROVED

    def _results(self, tmp_path, name, values, sha="a" * 64):
        runs = [
            {
                "workload": BENCHMARK["workloads"][0]["name"], "seed": seed, "trace": 0,
                "inputs_sha256": sha,
                "metrics": {m["name"]: {"value": value, "unit": m["unit"]}
                            for m in BENCHMARK["end_to_end"]},
            }
            for seed, value in enumerate(values)
        ]
        path = tmp_path / name
        path.write_text(json.dumps({"runs": runs}))
        return path

    def test_compare_exit_codes(self, tmp_path, capsys):
        bench = ROOT / "BENCHMARK.json"
        base = self._results(tmp_path, "base.json", self.base)
        same = self._results(tmp_path, "same.json", [v * 1.01 for v in self.base])
        # 30% more of everything: lower-is-better metrics regress.
        worse = self._results(tmp_path, "worse.json", [v * 1.3 for v in self.base])
        other = self._results(tmp_path, "other.json", self.base, sha="b" * 64)
        assert compare_files(base, same, bench) == 0
        assert NO_CHANGE in capsys.readouterr().out
        assert compare_files(base, worse, bench) == 1
        assert REGRESSED in capsys.readouterr().out
        assert compare_files(base, other, bench) == 2


def _span(name, start, wall, children=(), cpu=None, **counters):
    return {"name": name, "start_s": start, "wall_s": wall,
            "cpu_s": wall if cpu is None else cpu, "attributes": {},
            "counters": counters, "children": list(children)}


class TestSelfTime:
    def test_union_of_overlapping_children(self):
        assert covered_length([(1.0, 3.0), (2.0, 4.0), (6.0, 7.0)], 0.0, 10.0) == 4.0

    def test_children_are_clipped_to_the_parent(self):
        parent = _span("ingest", 10.0, 5.0, [_span("parse", 9.0, 2.0),
                                             _span("worker-0", 14.5, 8.0)])
        # parse covers 10..11, the grafted worker only the sliver 14.5..15.
        assert self_time(parent) == pytest.approx(3.5)

    def test_leaf_self_time_is_its_wall(self):
        assert self_time(_span("save", 0.0, 0.25)) == 0.25

    def test_offline_layers_partition_the_fit(self):
        ingest = _span("ingest", 0.0, 6.0, [
            _span("parse", 0.0, 3.0, records=1000),
            _span("clean", 3.0, 1.0, records_in=1000, records_out=900),
            _span("parse", 4.5, 0.5),
        ])
        stages = [_span(name, 6.0 + i, 1.0) for i, name in enumerate(
            ("vectorize", "cluster", "tune", "label", "spectral", "decompose"))]
        fit = _span("fit", 0.0, 12.5, [ingest, *stages])
        update = _span("update", 13.0, 2.0, [
            _span("ingest", 13.0, 1.0, [_span("parse", 13.0, 0.5, records=100)])])
        trace = {"spans": [fit, _span("save", 12.5, 0.2), update,
                           _span("save", 15.0, 0.2), _span("load", 15.2, 0.1),
                           _span("load", 15.3, 0.1)]}
        layers = offline_layers(trace)
        assert layers["ingest.parse_s"] == pytest.approx(4.0)
        assert layers["ingest.chunks"] == 2
        assert layers["ingest.parse_records_per_s"] == pytest.approx(1100 / 4.0)
        assert layers["ingest.parse_share"] == pytest.approx(3.5 / 12.5)
        assert layers["ingest.clean_kept_ratio"] == pytest.approx(0.9)
        assert layers["vectorize.scatter_s"] == pytest.approx(1.5 + 0.5)
        assert layers["stage.label_s"] == 1.0
        assert layers["update.wall_s"] == 2.0
        assert layers["update.ingest_s"] == 1.0
        assert layers["update.stages_rerun"] == 0
        assert layers["persist.save_s"] == 0.2
        assert layers["obs.unattributed_share"] == pytest.approx(0.5 / 12.5)


class TestHostSpeed:
    def test_scaled_divides_by_the_median_reference(self):
        # Median reference 0.02 s is twice REFERENCE_S: the host ran at half speed.
        assert scaled(3.0, [0.03, 0.02, 0.01]) == pytest.approx(3.0 * REFERENCE_S / 0.02)
        assert scaled(3.0, [REFERENCE_S] * 4) == pytest.approx(3.0)

    def test_reference_loop_is_timed(self):
        loops = HostSpeed().sample(2)
        assert len(loops) == 2 and all(loop > 0 for loop in loops)


class TestRequestPlan:
    bundles = (Path("A"), Path("B"))

    def test_distinct_never_repeats_a_query_within_a_bundle(self):
        plan = serve.request_plan(range(10), "distinct", 10, 7, *self.bundles)
        reload_at = plan.steps.index(Path("B"))
        first, second = plan.steps[:reload_at], plan.steps[reload_at + 1:]
        keys = {(kind, tower) for kind in serve.KINDS for tower in range(10)}
        assert len(first) == len(second) == len(keys)
        assert set(first) == set(second) == keys
        assert plan.min_steps == reload_at + 1 and not plan.repeat
        assert plan.reloads == 1

    def test_hot_cycles_a_tower_subset_with_two_swaps(self):
        plan = serve.request_plan(range(50), "hot", 4, 7, *self.bundles)
        assert len(plan.steps) == len(set(plan.steps)) == 4 * len(serve.KINDS)
        assert plan.repeat and plan.min_steps == len(plan.steps)
        assert [bundle for _, bundle in plan.hot_swaps] == [Path("B"), Path("A")]
        assert plan.reloads == 2

    def test_plan_follows_the_seed(self):
        assert (serve.request_plan(range(50), "hot", 4, 7, *self.bundles).steps
                == serve.request_plan(range(50), "hot", 4, 7, *self.bundles).steps)
        assert (serve.request_plan(range(50), "hot", 4, 7, *self.bundles).steps
                != serve.request_plan(range(50), "hot", 4, 8, *self.bundles).steps)


class TestMetricNames:
    def test_catalogue_matches_benchmark_json(self):
        assert END_TO_END == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
        assert PER_LAYER == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
        assert list(workloads("full")) == [w["name"] for w in BENCHMARK["workloads"]]
        assert list(workloads("smoke")) == list(workloads("full"))


def test_smoke_run_of_every_workload_prints_the_declared_metrics(tmp_path):
    completed = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "run", "--scale", "smoke",
         "--seconds", "0", "--out", str(tmp_path)],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=600,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    lines = completed.stdout.strip().splitlines()
    printed: dict[str, dict[str, str]] = {}
    for line in lines[:-1]:
        if line.startswith("#"):
            continue
        workload, metric, value, unit = line.split()
        float(value)
        printed.setdefault(workload, {})[metric] = unit
    assert list(printed) == [w["name"] for w in BENCHMARK["workloads"]]
    for units in printed.values():
        assert units == END_TO_END
    summary = json.loads(lines[-1])
    assert summary["correct"] is True
    assert summary["failed"] == 0
    assert summary["attempted"] > 0
    runs = json.loads((tmp_path / "results.json").read_text())["runs"]
    assert [run["workload"] for run in runs] == list(printed)
    assert all(len(run["inputs_sha256"]) == 64 for run in runs)


def test_tampered_decompose_reply_fails_its_check(tmp_path, monkeypatch):
    original = serve.Connection.request
    tampered = []

    def request(self, method, path, payload=None):
        status, body = original(self, method, path, payload)
        if path.startswith("/decompose/") and status == 200 and not tampered:
            reply = json.loads(body)
            label = next(iter(reply["coefficients"]))
            reply["coefficients"][label] += 1e-6
            body = json.dumps(reply).encode("utf-8")
            tampered.append(path)
        return status, body

    monkeypatch.setattr(serve.Connection, "request", request)
    record = run_workload(workloads("smoke")["wide_cold"], 11, scale="smoke",
                          seconds=0, traced=True, out=tmp_path)
    assert tampered
    assert not record["correct"]
    assert record["failures"] == [f"GET {tampered[0]}: reply matches neither bundle"]
    assert set(record["metrics"]) == set(PER_LAYER)
    assert (tmp_path / "trace-wide_cold.json").is_file()
    assert (tmp_path / "stats-wide_cold.json").is_file()
