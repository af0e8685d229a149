"""One lifecycle run of one workload: inputs → offline child → server → checks.

:func:`run_workload` returns a JSON-ready record with the run's metrics,
operation counts and check failures; ``__main__`` prints and stores it.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

from benchmarks.e2e import ROOT, child_env
from benchmarks.e2e.analysis import (
    STAGES,
    offline_layers,
    percentile,
    percentile_supported,
    serving_layers,
)
from benchmarks.e2e.serve import (
    Expected,
    ServerProcess,
    fetch_json,
    request_plan,
    response_failures,
    run_plan,
)
from benchmarks.e2e.hostspeed import HostSpeed, scaled
from benchmarks.e2e.workloads import SCALES, Workload, make_inputs

#: End-to-end metrics (reported with ``--trace 0``) and their units.
END_TO_END = {
    "setup_s": "s",
    "fit_s": "s",
    "latency_p50_ms": "ms",
    "fit_peak_rss_mb": "MiB",
    "serve_peak_rss_mb": "MiB",
}

#: Per-layer metrics (reported with ``--trace 1``) and their units.
PER_LAYER = {
    "ingest.parse_s": "s",
    "ingest.parse_records_per_s": "rec/s",
    "ingest.parse_share": "fraction",
    "ingest.chunks": "count",
    "ingest.clean_s": "s",
    "ingest.clean_kept_ratio": "fraction",
    "vectorize.scatter_s": "s",
    "vectorize.process_cpu_util": "ratio",
    **{f"stage.{stage}_s": "s" for stage in STAGES},
    "stage.num_patterns": "count",
    "stage.label_accuracy": "fraction",
    "update.wall_s": "s",
    "update.ingest_s": "s",
    "update.stages_rerun": "count",
    "persist.save_s": "s",
    "persist.load_s": "s",
    "persist.bundle_bytes": "bytes",
    "service.request_p50_ms": "ms",
    "service.request_p99_ms": "ms",
    "server.query_p50_ms": "ms",
    "service.wait_p50_ms": "ms",
    "service.cache_hit_ratio": "fraction",
    "server.decompose_cache_hit_ratio": "fraction",
    "service.mean_batch_size": "count",
    "service.coalesced_requests": "count",
    "service.reload_s": "s",
    "client.qps": "req/s",
    "client.latency_p90_ms": "ms",
    "client.latency_p99_ms": "ms",
    "client.overhead_p50_ms": "ms",
    "obs.trace_overhead": "fraction",
    "obs.unattributed_share": "fraction",
    "host.reference_ms": "ms",
}

#: Operations after an offline child's last fit: save, update, save, load, load.
OPS_AFTER_FITS = 5

#: Reference loops timed before and after each server spawn.
SPAWN_REFERENCE_REPEATS = 3

#: Seconds the offline child may take before the run is abandoned.
OFFLINE_TIMEOUT_S = 120.0

_SHM = Path("/dev/shm")


def _shm_segments() -> set[str]:
    """Names of the shared-memory blocks the parallel ingest pool creates."""
    return {path.name for path in _SHM.glob("psm_*")} if _SHM.is_dir() else set()


def _offline(spec: Workload, work: Path, chunk_size: int, budget_s: float,
             traced: bool) -> dict:
    """Run the offline half in a child process and return its report."""
    child = work / ("traced" if traced else "untraced")
    child.mkdir()
    job = {
        "inputs": str(work / "inputs"),
        "reference": str(work / "reference.npz"),
        "work": str(child),
        "fit_input": spec.fit_input,
        "workers": spec.workers,
        "chunk_size": chunk_size,
        "budget_s": budget_s,
        "traced": traced,
        "report": str(child / "report.json"),
    }
    (child / "job.json").write_text(json.dumps(job))
    shm_before = _shm_segments()
    # A session of its own, so an abandoned child is killed together with
    # the parallel pool's workers.
    process = subprocess.Popen(
        [sys.executable, "-m", "benchmarks.e2e.offline", str(child / "job.json")],
        cwd=ROOT, env=child_env(), start_new_session=True,
    )
    try:
        code = process.wait(timeout=OFFLINE_TIMEOUT_S)
    finally:
        if process.poll() is None:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
    if code != 0:
        raise RuntimeError(f"offline child exited with code {code}")
    report = json.loads((child / "report.json").read_text())
    leaked = _shm_segments() - shm_before
    if leaked:
        report["failures"].append(f"shared-memory segments left behind: {sorted(leaked)}")
    report["bundles"] = (child / "A", child / "B")
    return report


def _serve(spec: Workload, seed: int, bundles: tuple[Path, Path], spawns: int,
           budget_s: float, work: Path) -> dict:
    """Spawn the server ``spawns`` times, load the last one, check its replies."""
    bundle_a, bundle_b = bundles
    speed = HostSpeed()
    ready_s, references = [], []
    server = None
    try:
        for index in range(spawns):
            if server is not None:
                server.stop()
            references += speed.sample(SPAWN_REFERENCE_REPEATS)
            server = ServerProcess(bundle_a, work / f"server-{index}.log")
            ready_s.append(server.ready_s)
        references += speed.sample(SPAWN_REFERENCE_REPEATS)
        tower_ids = [int(t) for t in np.load(work / "inputs" / "truth.npz")["tower_ids"]]
        plan = request_plan(tower_ids, spec.queries, spec.query_towers, seed,
                            bundle_a, bundle_b)
        load = run_plan(server.host, server.port, plan, budget_s, speed)
        health = fetch_json(server.host, server.port, "/healthz")
        stats = fetch_json(server.host, server.port, "/stats")
        peak_rss_mb = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()

    failures = list(load.reload_failures)
    failures += response_failures(load.samples, Expected([bundle_a, bundle_b]))
    if len(load.reload_s) != plan.reloads or health["generation"] != 1 + plan.reloads:
        failures.append(
            f"{len(load.reload_s)} reloads and generation {health['generation']}, "
            f"expected {plan.reloads} and {1 + plan.reloads}"
        )
    return {
        "ready_s": ready_s,
        "spawn_references_s": references,
        "load": load,
        "stats": stats,
        "peak_rss_mb": peak_rss_mb,
        "failures": failures,
    }


def run_workload(
    spec: Workload, seed: int, *, scale: str, seconds: float, traced: bool, out: Path
) -> dict:
    """Run one workload once and return its result record.

    The offline half measures for ``seconds / 2`` (split between an
    untraced and a traced child when ``traced``), and the serving half for
    ``seconds / 2`` after the server spawns.  Every end-to-end timing is
    scaled by the host's speed measured beside it (:mod:`hostspeed`).
    """
    sizes = SCALES[scale]
    work = out / "work" / f"{spec.name}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        inputs = make_inputs(spec, seed, sizes.chunk_size, work)
        if traced:
            untraced_budget = traced_budget = seconds / 4.0
        else:
            untraced_budget, traced_budget = seconds / 2.0, None
        reports = [_offline(spec, work, sizes.chunk_size, untraced_budget, traced=False)]
        if traced_budget is not None:
            reports.append(_offline(spec, work, sizes.chunk_size, traced_budget,
                                    traced=True))
        serving = _serve(spec, seed, reports[-1]["bundles"], sizes.server_spawns,
                         seconds / 2.0, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    samples = serving["load"].samples
    latencies = [s.latency_s for s in samples]
    failures = [f for report in reports for f in report["failures"]]
    failures += serving["failures"]
    if sizes.enforce_p99_support and not percentile_supported(len(latencies), 99):
        failures.append(f"{len(latencies)} replies cannot support a p99")

    serving_references = serving["load"].references_s
    # Each unscaled timing with the reference loops of the phase it was measured in.
    timings = {
        "setup_s": (statistics.median(serving["ready_s"]), serving["spawn_references_s"]),
        "fit_s": (statistics.median(reports[0]["fit_s"]), reports[0]["references_s"]),
        "latency_p50_ms": (1000.0 * percentile(latencies, 50), serving_references),
    }
    values = {name: scaled(raw, references) for name, (raw, references) in timings.items()}
    values["fit_peak_rss_mb"] = reports[0]["peak_rss_mb"]
    values["serve_peak_rss_mb"] = serving["peak_rss_mb"]
    (out / f"stats-{spec.name}.json").write_text(json.dumps(serving["stats"], indent=2))
    if traced:
        traced_report = reports[-1]
        trace = traced_report["trace"]
        values.update(offline_layers(trace))
        values.update(serving_layers(serving["stats"], timings["latency_p50_ms"][0],
                                     serving["load"].reload_s))
        values["client.qps"] = len(samples) / serving["load"].wall_s
        values["client.latency_p90_ms"] = 1000.0 * percentile(latencies, 90)
        values["client.latency_p99_ms"] = 1000.0 * percentile(latencies, 99)
        values["stage.num_patterns"] = traced_report["num_patterns"]
        values["stage.label_accuracy"] = traced_report["label_accuracy"]
        values["persist.bundle_bytes"] = traced_report["bundle_bytes"]
        traced_fit_s = scaled(statistics.median(traced_report["fit_s"]),
                              traced_report["references_s"])
        values["obs.trace_overhead"] = traced_fit_s / values["fit_s"] - 1.0
        references = serving_references + serving["spawn_references_s"] + [
            r for report in reports for r in report["references_s"]
        ]
        values["host.reference_ms"] = 1000.0 * statistics.median(references)
        (out / f"trace-{spec.name}.json").write_text(json.dumps(trace, indent=2))

    units = PER_LAYER if traced else END_TO_END
    fits = sum(len(report["fit_s"]) for report in reports)
    failed = sum(1 for s in samples if s.status != 200)
    failed += len(serving["load"].reload_failures)
    return {
        "workload": spec.name,
        "seed": seed,
        "scale": scale,
        "seconds": seconds,
        "trace": int(traced),
        "inputs_sha256": inputs["inputs_sha256"],
        "records": {"history": inputs["history_records"], "day7": inputs["day7_records"]},
        "samples": len(latencies),
        "correct": not failures,
        "attempted": fits + OPS_AFTER_FITS * len(reports) + len(serving["ready_s"])
        + len(samples) + len(serving["load"].reload_s),
        "failed": failed,
        "failures": failures,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
        "unscaled": {name: raw for name, (raw, _) in timings.items()},
    }
