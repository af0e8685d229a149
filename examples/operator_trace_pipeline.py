#!/usr/bin/env python3
"""Operator-trace pipeline: raw connection logs → cleaning → geocoding →
density map → traffic vectors → pattern model → persisted bundle →
incremental day-over-day update → query serving.

This example mirrors what an ISP would run on its own logs (Section 2 of the
paper): the raw trace contains duplicated and conflicting records, station
addresses without coordinates, and billions of per-connection rows.  Here the
trace is synthetic and small, but every pipeline stage is the real one —
including the production workflow of fitting once, persisting the model,
folding a fresh day of logs in overnight and serving queries from the
artifact all day.

Run with::

    python examples/operator_trace_pipeline.py
"""

import tempfile
from pathlib import Path

from repro import ModelConfig, ScenarioConfig, TrafficPatternModel, generate_scenario
from repro.ingest.dedup import clean_batch
from repro.ingest.loader import read_record_batch_csv, write_records_csv
from repro.ingest.preprocess import preprocess_trace
from repro.ingest.records import BaseStationInfo
from repro.io.server import ModelServer
from repro.synth.geocoder import SyntheticGeocoder
from repro.viz.ascii import ascii_heatmap


def main() -> None:
    # 1. Produce a raw operator trace: session-level logs with injected
    #    duplicates and conflicting records, generated directly as a
    #    columnar RecordBatch (the vectorized data plane).
    print("Generating raw session-level logs (this exercises the full ingestion path)...")
    scenario = generate_scenario(
        ScenarioConfig(
            num_towers=40,
            num_users=300,
            num_days=7,
            seed=7,
            generate_sessions=True,
        )
    )
    raw_batch = scenario.session_batch()
    print(f"  raw records: {len(raw_batch):,} "
          f"(including {scenario.corruption_report.num_duplicates_added:,} duplicates and "
          f"{scenario.corruption_report.num_conflicts_added:,} conflicting copies)")

    # 2. Round-trip the trace through CSV, as an operator export would be.
    with tempfile.TemporaryDirectory() as tmp:
        trace_path = Path(tmp) / "trace.csv"
        write_records_csv(raw_batch, trace_path)
        print(f"  wrote {trace_path.stat().st_size / 1e6:.1f} MB trace to {trace_path.name}")
        batch = read_record_batch_csv(trace_path)

    # 3. Preprocess: dedup + conflict resolution (columnar), geocoding,
    #    traffic density.
    stations = [BaseStationInfo(t.tower_id, t.address) for t in scenario.city.towers]
    geocoder = SyntheticGeocoder.from_towers(scenario.city.towers)
    result = preprocess_trace(batch, stations, geocoder)
    report = result.report
    print("\nPreprocessing report:")
    print(f"  exact duplicates removed : {report.dedup.num_exact_duplicates_removed:,}")
    print(f"  conflict groups resolved : {report.dedup.num_conflict_groups:,}")
    print(f"  clean records            : {report.num_clean_records:,}")
    print(f"  stations geocoded        : {report.geocoding.num_resolved}/{report.geocoding.num_stations}")

    print("\nTraffic density across the city (bytes/km², dark = low):")
    print(ascii_heatmap(result.density.normalized() ** 0.5))

    # 4. Fit the pattern model on the clean batch: its records are folded
    #    into per-tower 10-minute slots (a stream of one batch) and each
    #    tower's series is normalised before clustering.
    model = TrafficPatternModel(ModelConfig(num_clusters=5))
    fit = model.fit_batches(
        [result.records],
        scenario.window,
        scenario.traffic.tower_ids.tolist(),
        city=scenario.city,
    )
    print("\nPatterns identified from the cleaned operator trace:")
    for summary in fit.summaries():
        print(f"  #{summary.cluster_label + 1} {summary.region.value:<14} "
              f"{summary.num_towers:>3} towers ({summary.percentage:.1f}%)")

    # 5. Persist the fitted model: fit once, query forever.  The bundle is a
    #    directory holding arrays.npz + manifest.json and round-trips the
    #    result bit-for-bit.
    with tempfile.TemporaryDirectory() as tmp:
        bundle = Path(tmp) / "model_bundle"
        model.save(bundle)
        size_kb = sum(f.stat().st_size for f in bundle.iterdir()) / 1024
        print(f"\nSaved the fitted model to {bundle.name}/ ({size_kb:.0f} KB)")

        # 6. Overnight, a fresh batch of logs arrives.  Fold it into the
        #    persisted model: the new records are scatter-added onto the
        #    stored slot grid and only the stages whose inputs changed are
        #    re-run — no city model needed, the persisted POI profiles
        #    re-label the fresh cut.
        overnight = generate_scenario(
            ScenarioConfig(
                num_towers=40,
                num_users=60,
                num_days=7,
                seed=8,
                generate_sessions=True,
            )
        )
        fresh, _ = clean_batch(overnight.session_batch())
        loaded = TrafficPatternModel.load(bundle)
        updated = loaded.update(fresh)
        reused = updated.extras["stages_reused"]
        print(f"Folded {len(fresh):,} fresh records into the stored model "
              f"(stages reused: {', '.join(reused) if reused else 'none'})")
        loaded.save(bundle)

        # 7. Serve queries from the updated artifact — summaries, region
        #    predictions and convex decompositions, all without ever
        #    re-running the fit (the server decomposes every tower once when
        #    it opens the bundle; each query is a row lookup).
        server = ModelServer.from_artifact(bundle)
        tower = server.tower_ids()[0]
        decomposition = server.decompose(tower)
        print("\nServing from the updated bundle:")
        print(f"  tower {tower} region     : {server.predict_region(tower).value}")
        print(f"  tower {tower} decomposes : {decomposition.as_dict()} "
              f"(residual {decomposition.residual:.4f})")
        print(f"  server stats             : {server.stats()}")


if __name__ == "__main__":
    main()
