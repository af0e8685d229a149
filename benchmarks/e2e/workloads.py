"""Workload definitions and seeded input generation.

A workload fixes the *shape* of one lifecycle run; the seed fixes its
contents.  :func:`make_inputs` writes everything the program reads into an
``inputs`` directory (hashed, so parent and change can prove they read the
same bytes) and the references the checks compare against into
``reference.npz`` (recomputed each run by the code under test, never
hashed).
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.ingest.batch import RecordBatch
from repro.ingest.dedup import clean_batch
from repro.ingest.loader import write_records_csv, write_stations_csv
from repro.ingest.records import BaseStationInfo
from repro.synth.scenario import ScenarioConfig, generate_scenario
from repro.synth.sessions import SessionGenerationConfig
from repro.synth.traffic import TowerTrafficMatrix
from repro.utils.timeutils import SLOTS_PER_DAY, TimeWindow
from repro.vectorize.aggregate import aggregate_batches, scatter_batch_into

#: Days in every scenario: six of history for the fit, the last for the update.
NUM_DAYS = 7

#: Subscribers in every scenario (only picks session user ids).
NUM_USERS = 2_000

#: First second of the update day.
UPDATE_DAY_START_S = (NUM_DAYS - 1) * 86_400.0


@dataclass(frozen=True)
class Workload:
    """The shape of one lifecycle run.

    ``fit_input`` is ``"records"`` (streamed fit of a six-day records CSV)
    or ``"matrix"`` (fit of a six-day traffic matrix; no parsing).  Every
    workload updates with a day-seven records CSV.  ``queries`` is
    ``"distinct"`` (every (kind, tower) pair once per bundle, so the result
    cache never hits) or ``"hot"`` (``query_towers`` towers cycled, with two
    reloads beside the reads).
    """

    name: str
    towers: int
    fit_input: str
    session_scale: float
    workers: int
    queries: str
    query_towers: int


@dataclass(frozen=True)
class Scale:
    """Sizes that do not depend on the workload."""

    chunk_size: int
    server_spawns: int
    enforce_p99_support: bool


SCALES = {
    "full": Scale(chunk_size=50_000, server_spawns=3, enforce_p99_support=True),
    "smoke": Scale(chunk_size=2_000, server_spawns=1, enforce_p99_support=False),
}


def workloads(scale: str) -> dict[str, Workload]:
    """The three workloads at ``scale`` (``"full"`` or ``"smoke"``).

    Why each exists, and which layer it stresses, is recorded in
    ``BENCHMARK.json`` and ``README.md``.
    """
    if scale == "full":
        stream = dict(towers=400, fit_input="records", session_scale=0.5)
        specs = [
            Workload("stream_hot", workers=0, queries="hot", query_towers=32, **stream),
            Workload("stream_parallel_cold", workers=2, queries="distinct",
                     query_towers=400, **stream),
            Workload("wide_cold", towers=1_200, fit_input="matrix", session_scale=0.25,
                     workers=0, queries="distinct", query_towers=1_200),
        ]
    elif scale == "smoke":
        stream = dict(towers=30, fit_input="records", session_scale=0.5)
        specs = [
            Workload("stream_hot", workers=0, queries="hot", query_towers=8, **stream),
            Workload("stream_parallel_cold", workers=2, queries="distinct",
                     query_towers=30, **stream),
            Workload("wide_cold", towers=60, fit_input="matrix", session_scale=0.2,
                     workers=0, queries="distinct", query_towers=40),
        ]
    else:
        raise ValueError(f"unknown scale {scale!r}; expected one of {sorted(SCALES)}")
    return {spec.name: spec for spec in specs}


def inputs_sha256(directory: Path) -> str:
    """SHA-256 over the names and bytes of every file in ``directory``."""
    digest = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        digest.update(path.name.encode("utf-8") + b"\0")
        with path.open("rb") as handle:
            for block in iter(lambda: handle.read(1 << 20), b""):
                digest.update(block)
    return digest.hexdigest()


def _cleaned_chunks(batch: RecordBatch, chunk_size: int) -> list[RecordBatch]:
    """Clean ``batch`` in the chunks the CSV reader yields for its file."""
    return [clean_batch(chunk)[0] for chunk in batch.iter_chunks(chunk_size)]


def make_inputs(spec: Workload, seed: int, chunk_size: int, work: Path) -> dict:
    """Generate ``spec``'s inputs for ``seed`` under ``work``.

    Writes ``work/inputs/`` (stations, pickled city, ground truth, the
    day-seven CSV and the six-day history as CSV or ``.npy``) and
    ``work/reference.npz``:

    * ``fit`` — the six-day matrix a correct fit starts from: the input
      matrix itself, or a serial aggregate of the history cleaned in the
      reader's chunks;
    * ``update`` — ``fit`` with the cleaned day-seven chunks scattered on
      in stream order (what a correct serial update holds, bit for bit);
    * ``day7_records`` — how many cleaned day-seven records must be folded.

    Returns a summary with the record counts and the inputs' SHA-256.
    """
    window = TimeWindow(num_days=NUM_DAYS)
    scenario = generate_scenario(
        ScenarioConfig(
            num_towers=spec.towers,
            num_users=NUM_USERS,
            num_days=NUM_DAYS,
            seed=seed,
            generate_sessions=True,
            sessions_as_batch=True,
            sessions=SessionGenerationConfig(
                window=window, sessions_per_slot_scale=spec.session_scale
            ),
        )
    )
    batch = scenario.session_batch()
    in_update_day = batch.start_s >= UPDATE_DAY_START_S
    history, day7 = batch.filter(~in_update_day), batch.filter(in_update_day)
    tower_ids = scenario.traffic.tower_ids

    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    # Stations follow the matrix row order, so a fit over the station
    # directory and the references share rows.
    write_stations_csv(
        [BaseStationInfo(int(t), scenario.city.tower(int(t)).address) for t in tower_ids],
        inputs / "stations.csv",
    )
    with (inputs / "city.pkl").open("wb") as handle:
        pickle.dump(scenario.city, handle, protocol=pickle.HIGHEST_PROTOCOL)
    np.savez(
        inputs / "truth.npz",
        tower_ids=tower_ids,
        region_index=scenario.ground_truth_labels(),
    )
    write_records_csv(day7, inputs / "day7.csv")
    if spec.fit_input == "records":
        write_records_csv(history, inputs / "history.csv")
        fit_matrix = aggregate_batches(
            _cleaned_chunks(history, chunk_size), window, tower_ids
        ).traffic
        history_records = len(history)
    else:
        fit_matrix = scenario.traffic.traffic.copy()
        fit_matrix[:, (NUM_DAYS - 1) * SLOTS_PER_DAY:] = 0.0
        np.save(inputs / "history.npy", fit_matrix)
        history_records = 0

    updated = TowerTrafficMatrix(tower_ids=tower_ids, traffic=fit_matrix.copy(),
                                 window=window)
    day7_chunks = _cleaned_chunks(day7, chunk_size)
    for chunk in day7_chunks:
        scatter_batch_into(updated, chunk)
    np.savez(
        work / "reference.npz",
        fit=fit_matrix,
        update=updated.traffic,
        day7_records=np.int64(sum(len(chunk) for chunk in day7_chunks)),
    )
    return {
        "history_records": history_records,
        "day7_records": len(day7),
        "inputs_sha256": inputs_sha256(inputs),
    }
