"""Command-line interface of the reproduction.

Seven subcommands cover the everyday workflow without writing Python:

``repro-traffic generate``
    Generate a synthetic scenario and write the raw trace (records CSV) plus
    the station directory (stations CSV) to an output directory.

``repro-traffic fit``
    Fit the traffic-pattern model either on a previously generated trace
    (``--input``/``--stations``) or on a fresh synthetic scenario, print the
    Table-1 style summary, optionally export per-tower cluster/region
    assignments as CSV and persist the fitted model (``--save``).

``repro-traffic update``
    Fold a fresh trace — typically one new day of records — into a persisted
    model bundle without refitting from zero: the new records are
    scatter-added onto the stored aggregate grid and only the pipeline
    stages whose inputs changed are re-run.

``repro-traffic query``
    Answer summary / decomposition / region / pattern queries from a
    persisted model bundle, without any fitting at all.

``repro-traffic decompose``
    Print the convex decomposition of one or more towers onto the primary
    components, either from a persisted bundle (``--model``) or by fitting
    first (trace or fresh synthetic scenario).

``repro-traffic serve``
    Serve a persisted model bundle over HTTP: an asyncio front-end that
    answers every query by row lookup and hot-swaps bundles atomically via
    ``POST /reload`` (:mod:`repro.io.service`).

``repro-traffic stats``
    Print a persisted bundle's provenance — versions, window, fit
    configuration, stage timings — and render its ``trace.json`` telemetry
    sidecar when one was written by a traced fit/update.  With ``--url``,
    fetch and render a live ``repro-traffic serve`` instance's ``/stats``
    snapshot instead.

``fit``, ``update`` and ``query`` accept ``--trace[=PATH]`` to record a
hierarchical span trace (plus a metrics snapshot): the span tree is printed
after the run, written to ``PATH`` as JSON when given, and saved as a
``trace.json`` sidecar next to any ``--save`` bundle.  Tracing is off by
default and the untraced outputs are bit-for-bit unchanged.

Operational failures — a missing input file, an unwritable ``--trace``
target, a corrupt or version-mismatched model bundle — exit with code 2 and
a path-qualified one-line message on stderr instead of a traceback.

Run ``repro-traffic <subcommand> --help`` for the full option list.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from repro.io.persist import (
    PersistError,
    read_manifest,
    read_trace_sidecar,
    write_trace_sidecar,
)
from repro.io.server import ModelServer
from repro.obs import MetricsRegistry, Tracer
from repro.viz.ascii import render_trace_tree
from repro.viz.export import export_json, export_rows_csv
from repro.viz.tables import decomposition_table, format_table

# The fit stack (model, ingest, synth) is imported inside the handlers that
# use it, so `serve` and `query` start without loading it.
if TYPE_CHECKING:
    from repro.core.config import ModelConfig
    from repro.core.model import TrafficPatternModel
    from repro.synth.scenario import Scenario


class CLIError(RuntimeError):
    """An operational CLI failure reported as a one-line message (exit 2)."""


def _require_file(path: str, what: str) -> Path:
    """Return ``path`` as a :class:`Path`, failing with a one-liner if absent."""
    resolved = Path(path)
    if not resolved.is_file():
        raise CLIError(f"{resolved}: {what} not found")
    return resolved


def _cluster_options(args: argparse.Namespace) -> tuple[str, int | None]:
    """Validate ``--cluster-backend``/``--cluster-tile-size``.

    Returns ``(backend, tile_size)`` with ``tile_size=None`` meaning "use the
    default"; bad values fail with the one-line exit-2 operational style.
    """
    from repro.cluster.backends import BACKEND_CHOICES

    backend = getattr(args, "cluster_backend", "auto")
    if backend not in BACKEND_CHOICES:
        raise CLIError(
            f"--cluster-backend must be one of {', '.join(BACKEND_CHOICES)}; "
            f"got {backend!r}"
        )
    tile_size = getattr(args, "cluster_tile_size", None)
    if tile_size is not None and tile_size <= 0:
        raise CLIError(
            f"--cluster-tile-size must be a positive tile edge length, "
            f"got {tile_size}"
        )
    return backend, tile_size


def _check_tower_count(num_towers: int, config: ModelConfig, source: str) -> None:
    """Refuse, before any work, a fit whose clustering cannot be cut.

    A fixed ``--clusters k`` needs at least ``k`` towers; the tuner scores
    cuts from ``min_clusters`` up to one below the tower count, so it needs
    ``min_clusters + 1``.
    """
    if config.num_clusters is not None:
        if num_towers < config.num_clusters:
            raise CLIError(
                f"{source}: {num_towers} towers cannot be cut into "
                f"--clusters {config.num_clusters} clusters"
            )
    elif num_towers <= config.min_clusters:
        raise CLIError(
            f"{source}: the tuner needs at least {config.min_clusters + 1} towers "
            f"to choose the number of clusters, got {num_towers}; pass --clusters"
        )


def _chunk_size(args: argparse.Namespace) -> int:
    """Validate ``--chunk-size``; ``0`` means "read the trace whole".

    A non-positive value fails with the one-line exit-2 operational style.
    """
    chunk_size = getattr(args, "chunk_size", None)
    if chunk_size is not None and chunk_size <= 0:
        raise CLIError(
            f"--chunk-size must be a positive record count, got {chunk_size}"
        )
    return chunk_size or 0


def _record_chunks(path: str | Path, chunk_size: int):
    """The records CSV as ``chunk_size``-record batches, or one whole batch."""
    from repro.ingest.loader import iter_record_batches_csv, read_record_batch_csv

    if chunk_size:
        return iter_record_batches_csv(path, chunk_size=chunk_size)
    return [read_record_batch_csv(path)]


def _trace_options(args: argparse.Namespace) -> tuple[bool, Path | None]:
    """Validate ``--trace[=PATH]`` and resolve it to ``(enabled, path)``.

    ``--trace`` alone enables tracing without a JSON file (the span tree is
    still printed, and a sidecar still lands next to any ``--save`` bundle).
    With a path, the target must be writable *before* the run starts — a
    multi-minute fit that fails to write its trace at the very end is the
    worst possible failure mode — so an unwritable target is the usual
    one-line exit-2 operational error.
    """
    value = getattr(args, "trace", None)
    if value is None:
        return False, None
    if value == "":
        return True, None
    path = Path(value)
    if path.is_dir():
        raise CLIError(f"{path}: --trace target is a directory, expected a file path")
    parent = path.parent if str(path.parent) else Path(".")
    if not parent.is_dir():
        raise CLIError(
            f"{path}: cannot write trace: directory {parent} does not exist"
        )
    if not os.access(parent, os.W_OK):
        raise CLIError(
            f"{path}: cannot write trace: directory {parent} is not writable"
        )
    return True, path


def _trace_payload(tracer: Tracer, metrics: MetricsRegistry) -> dict:
    """The JSON payload of a traced run: the trace dict plus a metrics key."""
    payload = tracer.to_dict()
    payload["metrics"] = metrics.snapshot()
    return payload


def _emit_trace(payload: dict, trace_path: Path | None) -> None:
    """Print the span tree and write the payload JSON when a path was given."""
    print("\ntrace:")
    print(render_trace_tree(payload))
    if trace_path is not None:
        try:
            trace_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        except OSError as err:
            raise CLIError(f"{trace_path}: cannot write trace: {err}") from None
        print(f"wrote trace to {trace_path}")


def _add_trace_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        nargs="?",
        const="",
        default=None,
        metavar="PATH",
        help="record a hierarchical span trace of the run: print the span "
        "tree, write it (plus a metrics snapshot) to PATH as JSON when "
        "given, and save a trace.json sidecar next to any --save bundle",
    )


def _add_cluster_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cluster-backend",
        default="auto",
        metavar="NAME",
        help="clustering backend: auto (nn_chain, switching to the "
        "memory-bounded nn_chain_lowmem above 20k towers), nn_chain, or "
        "nn_chain_lowmem",
    )
    parser.add_argument(
        "--cluster-tile-size",
        type=int,
        default=None,
        metavar="N",
        help="tile edge of the memory-bounded backend's blocked distance "
        "scans (default 1024 ≈ 8 MB per tile; the tile size can move merge "
        "heights by a few ulps, and changes merges and cuts only where two "
        "distances are that close)",
    )


def _add_scenario_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--towers", type=int, default=200, help="number of towers")
    parser.add_argument("--users", type=int, default=1000, help="number of subscribers")
    parser.add_argument("--days", type=int, default=28, help="number of days")
    parser.add_argument("--seed", type=int, default=0, help="scenario seed")


def _build_scenario(args: argparse.Namespace, *, sessions: bool) -> Scenario:
    from repro.synth.scenario import ScenarioConfig, generate_scenario

    return generate_scenario(
        ScenarioConfig(
            num_towers=args.towers,
            num_users=args.users,
            num_days=args.days,
            seed=args.seed,
            generate_sessions=sessions,
        )
    )


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.ingest.loader import write_records_csv, write_stations_csv
    from repro.ingest.records import BaseStationInfo

    output = Path(args.output)
    output.mkdir(parents=True, exist_ok=True)
    scenario = _build_scenario(args, sessions=True)
    trace_path = output / "trace.csv"
    stations_path = output / "stations.csv"
    num_records = write_records_csv(scenario.session_batch(), trace_path)
    stations = [BaseStationInfo(t.tower_id, t.address) for t in scenario.city.towers]
    write_stations_csv(stations, stations_path)
    print(f"wrote {num_records:,} records to {trace_path}")
    print(f"wrote {len(stations)} stations to {stations_path}")
    report = scenario.corruption_report
    if report is not None:
        print(
            f"corruption injected: {report.num_duplicates_added:,} duplicates, "
            f"{report.num_conflicts_added:,} conflicting copies"
        )
    return 0


def _fit_model(
    args: argparse.Namespace,
    *,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
) -> tuple[TrafficPatternModel, Scenario | None]:
    from repro.core.config import ModelConfig
    from repro.core.model import TrafficPatternModel
    from repro.ingest.dedup import clean_chunk
    from repro.ingest.loader import read_stations_csv
    from repro.utils.timeutils import TimeWindow

    chunk_size = _chunk_size(args)
    backend, tile_size = _cluster_options(args)
    config_kwargs = dict(
        max_clusters=args.max_clusters,
        num_clusters=args.clusters,
        cluster_backend=backend,
    )
    if tile_size is not None:
        config_kwargs["cluster_tile_size"] = tile_size
    config = ModelConfig(**config_kwargs)
    model = TrafficPatternModel(config)

    if chunk_size and not args.input:
        raise SystemExit("--chunk-size only applies when fitting from --input")
    if args.input:
        if not args.stations:
            raise SystemExit("--stations is required when --input is given")
        _require_file(args.input, "trace file")
        _require_file(args.stations, "stations file")
        stations = read_stations_csv(args.stations)
        _check_tower_count(len(stations), config, args.stations)
        tower_ids = [station.tower_id for station in stations]
        # Each chunk is cleaned on its own (clean_chunk) and scattered into
        # the accumulator matrix, so with --chunk-size memory stays bounded
        # by the chunk size regardless of the trace size.
        model.fit_batches(
            _record_chunks(args.input, chunk_size),
            TimeWindow(num_days=args.days),
            tower_ids,
            prepare=clean_chunk,
            tracer=tracer,
            metrics=metrics,
        )
        return model, None

    _check_tower_count(args.towers, config, "--towers")
    scenario = _build_scenario(args, sessions=False)
    model.fit(scenario.traffic, city=scenario.city, tracer=tracer)
    return model, scenario


def _cmd_fit(args: argparse.Namespace) -> int:
    traced, trace_path = _trace_options(args)
    tracer = Tracer() if traced else None
    metrics = MetricsRegistry() if traced else None
    model, _ = _fit_model(args, tracer=tracer, metrics=metrics)
    result = model.result

    print(f"identified {result.num_clusters} traffic patterns")
    rows = []
    for summary in result.summaries():
        region = summary.region.value if summary.region else "unlabelled"
        rows.append([summary.cluster_label + 1, region, summary.num_towers,
                     round(summary.percentage, 2)])
    print(format_table(["cluster", "region", "towers", "%"], rows))

    if result.tuning_curve is not None:
        best_k, best_score, threshold = result.tuning_curve.best()
        print(
            f"\nmetric tuner: Davies-Bouldin minimised at k={best_k} "
            f"(score {best_score:.3f}, distance threshold {threshold:.2f})"
        )

    if args.timings:
        timings = result.extras.get("stage_timings", {})
        skipped = set(result.extras.get("stages_skipped", ()))
        print("\npipeline stage timings:")
        for stage_name, seconds in timings.items():
            detail = "skipped" if stage_name in skipped else f"{seconds * 1000.0:8.1f} ms"
            print(f"  {stage_name:<10} {detail}")

    if args.assignments:
        assignment_rows = []
        for row in range(result.vectorized.num_towers):
            cluster = int(result.labels[row])
            region = result.region_of_cluster(cluster)
            assignment_rows.append(
                {
                    "tower_id": int(result.tower_ids[row]),
                    "cluster": cluster + 1,
                    "region": region.value if region else "unlabelled",
                }
            )
        export_rows_csv(assignment_rows, args.assignments)
        print(f"\nwrote per-tower assignments to {args.assignments}")

    if getattr(args, "save", None):
        bundle = model.save(args.save)
        print(f"\nsaved model bundle to {bundle}")
        if traced:
            sidecar = write_trace_sidecar(_trace_payload(tracer, metrics), bundle)
            print(f"saved trace sidecar to {sidecar}")

    if traced:
        _emit_trace(_trace_payload(tracer, metrics), trace_path)
    return 0


def _print_decompositions(batch, region_of_cluster) -> None:
    """Print the coefficient table of a :class:`BatchDecomposition`.

    ``region_of_cluster`` names each component by its cluster's region
    (``None`` when the model is unlabelled).
    """
    component_names = []
    for label in sorted(batch.component_labels.tolist()):
        region = region_of_cluster(label)
        component_names.append(region.value if region else f"component {label}")
    print(decomposition_table(batch, component_names))


def _default_decompose_towers(server: ModelServer, count: int) -> list[int]:
    """The first few towers of the comprehensive cluster (or of cluster 0)."""
    from repro.synth.regions import RegionType

    try:
        cluster = server.cluster_of_region(RegionType.COMPREHENSIVE)
    except KeyError:
        cluster = 0
    return server.towers_of_cluster(cluster)[:count]


def _cmd_decompose(args: argparse.Namespace) -> int:
    if args.model:
        # Answer from the bundle's serving arrays: no refit, and neither
        # towers × slots grid is read.
        server = ModelServer.from_artifact(args.model)
    else:
        model, _ = _fit_model(args)
        server = ModelServer(model)
    if not server.has_components:
        raise SystemExit("not enough clusters to build primary components")

    tower_ids = args.tower_ids
    if not tower_ids:
        tower_ids = _default_decompose_towers(server, args.count)

    def solve_all():
        return server.decompose_many([int(t) for t in tower_ids])

    batch = _served(args.model, solve_all) if args.model else solve_all()
    _print_decompositions(batch, server.region_of_cluster)
    return 0


def _cmd_update(args: argparse.Namespace) -> int:
    from repro.core.model import TrafficPatternModel
    from repro.ingest.dedup import clean_chunk

    chunk_size = _chunk_size(args)
    traced, trace_out = _trace_options(args)
    tracer = Tracer() if traced else None
    metrics = MetricsRegistry() if traced else None
    model = TrafficPatternModel.load(args.model)
    window = model.result.window
    trace_path = _require_file(args.input, "input trace")
    result = model.update(
        _record_chunks(trace_path, chunk_size),
        prepare=clean_chunk,
        tracer=tracer,
        metrics=metrics,
    )
    stats = result.extras.get("update_stats", {})
    seen = stats.get("records_seen", 0)
    folded = stats.get("records_folded", 0)
    if seen and not folded:
        # Every record missed the stored grid — saving would silently
        # pretend the update happened.
        raise CLIError(
            f"{trace_path}: none of the {seen:,} clean records fall inside the "
            f"model's {window.num_days}-day window and tower grid; model left "
            "unchanged (the observation window is fixed at fit time)"
        )
    save_path = args.save or args.model
    bundle = model.save(save_path)
    if traced:
        write_trace_sidecar(_trace_payload(tracer, metrics), bundle)

    dropped = seen - folded
    suffix = f" ({dropped:,} outside the window/tower grid)" if dropped else ""
    print(
        f"folded {folded:,} of {seen:,} clean records into the "
        f"{window.num_days}-day model{suffix}"
    )
    reused = result.extras.get("stages_reused", [])
    stage_names = list(result.extras.get("stage_timings", {}))
    skipped = set(result.extras.get("stages_skipped", ()))
    rerun = [
        name
        for name in stage_names
        if name not in reused and name not in skipped
    ]
    print(f"stages re-run: {', '.join(rerun) if rerun else '<none>'}")
    print(f"stages reused: {', '.join(reused) if reused else '<none>'}")
    print(f"identified {result.num_clusters} traffic patterns")
    print(f"saved updated model bundle to {bundle}")
    if traced:
        _emit_trace(_trace_payload(tracer, metrics), trace_out)
    return 0


def _served(model_path: str, fn):
    """Run one query, converting domain errors to path-qualified CLI errors."""
    try:
        return fn()
    except (KeyError, RuntimeError) as err:
        message = err.args[0] if err.args else str(err)
        raise CLIError(f"{model_path}: {message}") from None


def _cmd_query(args: argparse.Namespace) -> int:
    traced, trace_path = _trace_options(args)
    tracer = Tracer() if traced else None
    metrics = MetricsRegistry() if traced else None
    server = ModelServer.from_artifact(args.model, tracer=tracer, metrics=metrics)
    payload: dict[str, object] = {}
    explicit = bool(args.decompose or args.decompose_all or args.region or args.pattern)

    if args.summary or not explicit:
        rows = server.percentage_table()
        print(f"{server.num_clusters} traffic patterns "
              f"({server.num_towers} towers, {server.num_days} days)")
        print(format_table(
            ["cluster", "region", "%"],
            [[row["cluster"], row["region"], row["percentage"]] for row in rows],
        ))
        if args.json:
            payload["summary"] = rows

    if args.decompose:
        batch = _served(
            args.model, lambda: server.decompose_many([int(t) for t in args.decompose])
        )
        print()
        _served(args.model, lambda: _print_decompositions(batch, server.region_of_cluster))
        if args.json:
            payload["decompositions"] = batch.as_rows()

    if args.decompose_all:
        batch = _served(args.model, server.decompose_all)
        print()
        print(f"convex decomposition of all {len(batch)} towers:")
        _served(args.model, lambda: _print_decompositions(batch, server.region_of_cluster))
        if args.json:
            payload["decompositions_all"] = batch.as_rows()

    if args.region:
        rows = []
        for tower_id in args.region:
            region = _served(args.model, lambda t=tower_id: server.predict_region(int(t)))
            rows.append([int(tower_id), region.value])
        print()
        print(format_table(["tower", "region"], rows))
        if args.json:
            payload["regions"] = [
                {"tower_id": row[0], "region": row[1]} for row in rows
            ]

    if args.pattern:
        pattern_rows = [
            _served(args.model, lambda t=tower_id: server.pattern_of(int(t)).as_row())
            for tower_id in args.pattern
        ]
        print()
        print(format_table(
            ["tower", "cluster", "region", "total bytes", "peak slot"],
            [
                [row["tower_id"], row["cluster"], row["region"],
                 f"{row['total_bytes']:,.0f}", row["peak_slot"]]
                for row in pattern_rows
            ],
        ))
        if args.json:
            payload["patterns"] = pattern_rows

    if args.json:
        export_json(payload, args.json)
        print(f"\nwrote query results to {args.json}")

    if traced:
        _emit_trace(_trace_payload(tracer, metrics), trace_path)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    if not 0 <= args.port <= 65535:
        raise CLIError(f"--port must be within 0..65535, got {args.port}")
    from repro.io.service import ModelService, run_service

    # Loads (and validates) the bundle before binding the socket, so a bad
    # bundle is the usual one-line exit-2 error instead of a serving 500.
    service = ModelService(args.model)

    def on_ready(host: str, port: int) -> None:
        print(f"serving model bundle {args.model} at http://{host}:{port}")
        print(
            "endpoints: GET /healthz /summary /stats /pattern/<id> "
            "/decompose/<id> /region/<id>; POST /decompose /region /reload"
        )
        print("press Ctrl-C to stop")

    try:
        run_service(service, host=args.host, port=args.port, on_ready=on_ready)
    except OSError as err:
        raise CLIError(f"cannot serve on {args.host}:{args.port}: {err}") from None
    return 0


def _fetch_live_stats(url: str) -> dict:
    """Fetch a live server's ``/stats`` snapshot, one-line-failing on errors."""
    import urllib.error
    import urllib.request

    target = url.rstrip("/")
    if not target.endswith("/stats"):
        target = target + "/stats"
    try:
        with urllib.request.urlopen(target, timeout=10.0) as response:
            payload = json.loads(response.read())
    except (urllib.error.URLError, OSError, json.JSONDecodeError, ValueError) as err:
        raise CLIError(f"{target}: cannot fetch serving stats: {err}") from None
    if not isinstance(payload, dict) or "service" not in payload:
        raise CLIError(f"{target}: not a repro-traffic /stats payload")
    return payload


def _format_latency(snapshot: dict | None) -> str:
    if not snapshot or not snapshot.get("count"):
        return "no observations yet"
    return (
        f"{snapshot['count']:,} obs, "
        f"p50 {snapshot['p50'] * 1000.0:.2f} ms, "
        f"p95 {snapshot['p95'] * 1000.0:.2f} ms, "
        f"p99 {snapshot['p99'] * 1000.0:.2f} ms"
    )


def _cmd_stats_url(url: str) -> int:
    payload = _fetch_live_stats(url)
    service = payload.get("service", {})
    server = payload.get("server", {})

    print(f"live serving stats from {url}")
    print(f"  model fingerprint: {service.get('model_fingerprint')}")
    print(f"  model path:        {service.get('model_path')}")
    print(f"  generation:        {service.get('generation')} "
          f"({service.get('reloads', 0)} hot-swaps)")
    print(f"  requests:          {service.get('requests', 0):,} "
          f"({service.get('errors', 0):,} errors)")
    print(f"  request latency:   {_format_latency(service.get('request_latency'))}")
    print("  model server:")
    print(f"    queries:         {server.get('queries', 0):,}")
    print(f"    query latency:   {_format_latency(server.get('query_latency'))}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    if bool(args.model) == bool(args.url):
        raise CLIError("stats needs exactly one of --model (bundle sidecar) "
                       "or --url (live server)")
    if args.url:
        return _cmd_stats_url(args.url)
    manifest = read_manifest(args.model)

    window = manifest.get("window", {})
    print(f"model bundle: {args.model}")
    print(f"  format:           {manifest.get('format')} "
          f"(schema v{manifest.get('schema_version')})")
    print(f"  written by:       repro-traffic {manifest.get('package_version')}")
    print(f"  window:           {window.get('num_days')} days "
          f"(start weekday {window.get('start_weekday')})")

    config = manifest.get("config", {})
    print("  config:")
    for key in sorted(config):
        print(f"    {key:<24} {config[key]}")

    extras = manifest.get("extras", {})
    timings = extras.get("stage_timings", {})
    if timings:
        skipped = set(extras.get("stages_skipped", ()))
        reused = set(extras.get("stages_reused", ()))
        print("  stage timings (last fit/update):")
        for stage_name, seconds in timings.items():
            if stage_name in skipped:
                detail = "skipped"
            elif stage_name in reused:
                detail = "reused"
            else:
                detail = f"{seconds * 1000.0:8.1f} ms"
            print(f"    {stage_name:<10} {detail}")

    sidecar = read_trace_sidecar(args.model)
    if sidecar is None:
        print("  trace sidecar:    none (re-fit with --trace to record one)")
    else:
        print("\ntrace (from trace.json sidecar):")
        print(render_trace_tree(sidecar))
        metrics = sidecar.get("metrics", {})
        counters = metrics.get("counters", {}) if isinstance(metrics, dict) else {}
        if counters:
            print("\ncounters:")
            for name in sorted(counters):
                print(f"  {name:<28} {counters[name]:,}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-traffic",
        description="Reproduction of 'Understanding Mobile Traffic Patterns of "
        "Large Scale Cellular Towers in Urban Environment' (IMC 2015)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser("generate", help="generate a synthetic operator trace")
    _add_scenario_arguments(generate)
    generate.add_argument("--output", required=True, help="output directory")
    generate.set_defaults(handler=_cmd_generate)

    fit = subparsers.add_parser("fit", help="fit the traffic-pattern model")
    _add_scenario_arguments(fit)
    fit.add_argument("--input", help="records CSV produced by 'generate' (optional)")
    fit.add_argument("--stations", help="stations CSV produced by 'generate'")
    fit.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        help="stream the trace in chunks of this many records (out-of-core "
        "fit for traces larger than memory; each chunk is cleaned "
        "independently; default loads the whole trace)",
    )
    fit.add_argument("--clusters", type=int, default=None, help="fixed number of clusters")
    fit.add_argument("--max-clusters", type=int, default=10, help="tuner upper bound")
    _add_cluster_arguments(fit)
    fit.add_argument(
        "--timings", action="store_true", help="print per-stage wall-clock timings"
    )
    fit.add_argument("--assignments", help="write per-tower assignments to this CSV")
    fit.add_argument(
        "--save",
        help="persist the fitted model as a bundle directory (NPZ arrays + "
        "JSON manifest) usable by 'update', 'query' and 'decompose --model'",
    )
    _add_trace_argument(fit)
    fit.set_defaults(handler=_cmd_fit)

    update = subparsers.add_parser(
        "update",
        help="fold a fresh trace into a persisted model without a full refit",
    )
    update.add_argument("--model", required=True, help="model bundle written by 'fit --save'")
    update.add_argument(
        "--input", required=True,
        help="records CSV with the new traffic (e.g. one fresh day)",
    )
    update.add_argument(
        "--save",
        help="where to write the updated bundle (default: overwrite --model)",
    )
    update.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        help="stream the new trace in chunks of this many records "
        "(default loads it whole)",
    )
    _add_trace_argument(update)
    update.set_defaults(handler=_cmd_update)

    query = subparsers.add_parser(
        "query", help="answer queries from a persisted model bundle (no fitting)"
    )
    query.add_argument("--model", required=True, help="model bundle written by 'fit --save'")
    query.add_argument(
        "--summary", action="store_true",
        help="print the Table-1 cluster summary (default when no other query is given)",
    )
    query.add_argument(
        "--decompose", type=int, nargs="+", metavar="TOWER",
        help="convex decomposition of these towers (one batched solve)",
    )
    query.add_argument(
        "--decompose-all", action="store_true",
        help="convex decomposition of every tower in one vectorized call",
    )
    query.add_argument(
        "--region", type=int, nargs="+", metavar="TOWER",
        help="predicted functional region of these towers",
    )
    query.add_argument(
        "--pattern", type=int, nargs="+", metavar="TOWER",
        help="full pattern record (cluster, region, volume, peak) of these towers",
    )
    query.add_argument("--json", help="also write the query results to this JSON file")
    _add_trace_argument(query)
    query.set_defaults(handler=_cmd_query)

    decompose = subparsers.add_parser(
        "decompose", help="convex decomposition of towers onto the primary components"
    )
    decompose.add_argument(
        "--model",
        help="serve the decomposition from this persisted bundle instead of "
        "re-fitting (trace/scenario options are ignored)",
    )
    _add_scenario_arguments(decompose)
    decompose.add_argument("--input", help="records CSV produced by 'generate' (optional)")
    decompose.add_argument("--stations", help="stations CSV produced by 'generate'")
    decompose.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        help="stream the trace in chunks of this many records (default "
        "loads the whole trace)",
    )
    decompose.add_argument("--clusters", type=int, default=None, help="fixed number of clusters")
    decompose.add_argument("--max-clusters", type=int, default=10, help="tuner upper bound")
    _add_cluster_arguments(decompose)
    decompose.add_argument(
        "--tower-ids", type=int, nargs="*", default=None, help="tower ids to decompose"
    )
    decompose.add_argument(
        "--count", type=int, default=5, help="how many comprehensive towers to decompose by default"
    )
    decompose.set_defaults(handler=_cmd_decompose)

    serve = subparsers.add_parser(
        "serve",
        help="serve a persisted model bundle over HTTP/JSON "
        "(row-lookup queries, hot-swap via POST /reload)",
    )
    serve.add_argument("--model", required=True, help="model bundle written by 'fit --save'")
    serve.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    serve.add_argument(
        "--port", type=int, default=8350,
        help="TCP port (default 8350; 0 picks an ephemeral port)",
    )
    serve.set_defaults(handler=_cmd_serve)

    stats = subparsers.add_parser(
        "stats",
        help="print a bundle's provenance and timings, or a live server's "
        "serving counters",
    )
    stats.add_argument("--model", help="model bundle written by 'fit --save'")
    stats.add_argument(
        "--url",
        help="base URL of a running 'repro-traffic serve' instance "
        "(e.g. http://127.0.0.1:8350); fetches and renders its /stats",
    )
    stats.set_defaults(handler=_cmd_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    Operational failures (missing files, malformed trace rows, corrupt or
    version-mismatched model bundles) exit with code 2 and a single
    path-qualified line on stderr.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return int(args.handler(args))
    except (CLIError, PersistError) as err:
        message = str(err)
    except ValueError as err:
        # Only the records reader raises TraceFormatError; importing it here
        # keeps it off the serve path.
        from repro.ingest.loader import TraceFormatError

        if not isinstance(err, TraceFormatError):
            raise
        message = str(err)
    print(f"repro-traffic: error: {message}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
