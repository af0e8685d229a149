"""Pure arithmetic of the benchmark: percentiles, spreads and span self times.

Kept free of I/O so ``test_harness.py`` can pin every rule down exactly.
Span arguments are the dicts of the program's ``repro-trace`` v1 export
(``name``, ``start_s``, ``wall_s``, ``cpu_s``, ``attributes``, ``counters``,
``children``).
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable, Iterator, Sequence

#: Fewest samples a reported percentile must leave beyond it.
MIN_SAMPLES_BEYOND = 10

#: Pipeline stages, in run order, as the program names their spans.
STAGES = ("vectorize", "cluster", "tune", "label", "spectral", "decompose")


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank ``p``-th percentile (``0 < p <= 100``) of ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * p / 100.0))
    return float(ordered[rank - 1])


def samples_beyond(count: int, p: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank ``p``-th percentile."""
    return count - max(1, math.ceil(count * p / 100.0))


def percentile_supported(count: int, p: float) -> bool:
    """Whether ``count`` samples support reporting the ``p``-th percentile."""
    return samples_beyond(count, p) >= MIN_SAMPLES_BEYOND


def quartile_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (``inf`` below 2 samples).

    Quartiles are :func:`statistics.quantiles` with ``n=4`` (its default
    exclusive method), the rule the acceptance check applies.
    """
    if len(values) < 2:
        return math.inf
    q1, median, q3 = statistics.quantiles(values, n=4)
    if median == 0:
        return 0.0 if q1 == q3 else math.inf
    return (q3 - q1) / abs(median)


def walk(span: dict) -> Iterator[dict]:
    """Yield ``span`` and every descendant, depth first."""
    yield span
    for child in span.get("children", ()):
        yield from walk(child)


def covered_length(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(start, lo), min(end, hi)) for start, end in intervals if end > lo and start < hi
    )
    total = 0.0
    cursor = lo
    for start, end in clipped:
        start = max(start, cursor)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_time(span: dict) -> float:
    """A span's wall time minus the part of its interval its children cover.

    Children are clipped to the parent's interval, so a pre-measured span
    grafted at the end of its parent (the parallel pool's ``worker-N``
    spans, whose work overlapped the parent's) removes only the sliver it
    was attached in, not its whole duration.
    """
    lo = float(span["start_s"])
    hi = lo + float(span["wall_s"])
    children = [
        (float(child["start_s"]), float(child["start_s"]) + float(child["wall_s"]))
        for child in span.get("children", ())
    ]
    return max(0.0, (hi - lo) - covered_length(children, lo, hi))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _roots(trace: dict, name: str) -> list[dict]:
    return [span for span in trace["spans"] if span["name"] == name]


def _child(span: dict, name: str) -> dict | None:
    return next((c for c in span.get("children", ()) if c["name"] == name), None)


def offline_layers(trace: dict) -> dict[str, float]:
    """Per-layer numbers of one traced fit → save → update → save → load rep.

    ``trace`` holds the program's ``fit`` and ``update`` roots, with the
    benchmark's ``parse``/``clean`` spans nested inside their ``ingest``
    spans, and the benchmark's ``save``/``load`` roots (the first of each
    is bundle A's).
    """
    (fit,) = _roots(trace, "fit")
    (update,) = _roots(trace, "update")
    lifecycle = [fit, update]
    spans = [span for root in lifecycle for span in walk(root)]
    parse = [span for span in spans if span["name"] == "parse"]
    clean = [span for span in spans if span["name"] == "clean"]
    ingest = [span for span in spans if span["name"] == "ingest"]
    workers = [span for span in spans if span["name"].startswith("worker-")]

    parse_s = sum(self_time(span) for span in parse)
    records = sum(span["counters"].get("records", 0) for span in parse)
    clean_in = sum(span["counters"].get("records_in", 0) for span in clean)
    clean_out = sum(span["counters"].get("records_out", 0) for span in clean)
    ingest_wall = sum(span["wall_s"] for span in ingest)
    ingest_cpu = sum(span["cpu_s"] for span in ingest) + sum(s["cpu_s"] for s in workers)
    fit_parse_s = sum(self_time(span) for span in walk(fit) if span["name"] == "parse")

    layers = {
        "ingest.parse_s": parse_s,
        "ingest.parse_records_per_s": _ratio(records, parse_s),
        "ingest.parse_share": fit_parse_s / fit["wall_s"],
        "ingest.chunks": sum(1 for span in parse if span["counters"].get("records")),
        "ingest.clean_s": sum(self_time(span) for span in clean),
        "ingest.clean_kept_ratio": _ratio(clean_out, clean_in),
        "vectorize.scatter_s": sum(self_time(span) for span in ingest),
        "vectorize.process_cpu_util": _ratio(ingest_cpu, ingest_wall),
    }
    for stage in STAGES:
        span = _child(fit, stage)
        layers[f"stage.{stage}_s"] = 0.0 if span is None else span["wall_s"]
    layers["update.wall_s"] = update["wall_s"]
    update_ingest = _child(update, "ingest")
    layers["update.ingest_s"] = 0.0 if update_ingest is None else update_ingest["wall_s"]
    layers["update.stages_rerun"] = sum(
        1
        for child in update.get("children", ())
        if child["name"] in STAGES
        and not child["attributes"].get("reused")
        and not child["attributes"].get("skipped")
    )
    layers["persist.save_s"] = _roots(trace, "save")[0]["wall_s"]
    layers["persist.load_s"] = _roots(trace, "load")[0]["wall_s"]
    layers["obs.unattributed_share"] = self_time(fit) / fit["wall_s"]
    return layers


def serving_layers(stats: dict, client_p50_ms: float, reload_s: Sequence[float]) -> dict:
    """Per-layer serving numbers from a server's final ``/stats`` snapshot."""
    registry = stats["metrics"]
    counters = registry["counters"]
    histograms = registry["histograms"]
    request = histograms["service.request_seconds"]
    query = histograms.get("server.query_seconds") or {"p50": 0.0}
    request_p50_ms = 1000.0 * (request["p50"] or 0.0)
    query_p50_ms = 1000.0 * (query["p50"] or 0.0)
    kinds = ("decompose", "region")
    batched = sum(counters.get(f"service.batched_requests.{k}", 0) for k in kinds)
    flushes = sum(counters.get(f"service.batch_flushes.{k}", 0) for k in kinds)
    hits = counters.get("service.cache_hits", 0)
    misses = counters.get("service.cache_misses", 0)
    server_hits = counters.get("server.decompose_cache_hits", 0)
    server_misses = counters.get("server.decompose_cache_misses", 0)
    return {
        "service.request_p50_ms": request_p50_ms,
        "service.request_p99_ms": 1000.0 * (request["p99"] or 0.0),
        "server.query_p50_ms": query_p50_ms,
        "service.wait_p50_ms": request_p50_ms - query_p50_ms,
        "service.cache_hit_ratio": _ratio(hits, hits + misses),
        "server.decompose_cache_hit_ratio": _ratio(server_hits, server_hits + server_misses),
        "service.mean_batch_size": _ratio(batched, flushes),
        "service.coalesced_requests": sum(
            counters.get(f"service.coalesced_requests.{k}", 0) for k in kinds
        ),
        "service.reload_s": statistics.median(reload_s) if reload_s else 0.0,
        "client.overhead_p50_ms": client_p50_ms - request_p50_ms,
    }
