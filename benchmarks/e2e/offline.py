"""Offline half of a lifecycle run, in a process of its own.

``python -m benchmarks.e2e.offline JOB.json`` repeats the fit until the
job's time budget is spent (at least once), timing the reference loop of
:mod:`benchmarks.e2e.hostspeed` between fits.  The last fit then goes on:
save A → update → save B → load A → load B.  That lifecycle is checked
against the references, and a JSON report goes to the job's ``report``
path.

With ``traced`` set, every fit gets a fresh :class:`Tracer` and
:class:`MetricsRegistry`, passed to the program's public fit and update
calls; the benchmark's own ``parse``, ``clean``, ``save`` and ``load`` spans
wrap the CSV reader, :func:`clean_batch` and the persistence calls.  Because
the reader is pulled inside the program's ``fit > ingest`` span, the parse
and clean spans nest there and self time separates parse, clean and
scatter.
"""

from __future__ import annotations

import json
import pickle
import resource
import sys
import time
from pathlib import Path

import numpy as np

from repro.core.model import TrafficPatternModel
from repro.ingest.dedup import clean_batch
from repro.ingest.loader import iter_record_batches_csv, read_stations_csv
from repro.obs import MetricsRegistry, Tracer
from repro.obs.trace import NULL_TRACER
from repro.synth.traffic import TowerTrafficMatrix
from repro.utils.timeutils import TimeWindow
from repro.vectorize.parallel import clean_chunk

from benchmarks.e2e.hostspeed import HostSpeed
from benchmarks.e2e.workloads import NUM_DAYS


def _parse_spans(tracer, chunks):
    """Yield ``chunks``, timing each pull from the reader as a ``parse`` span."""
    iterator = iter(chunks)
    while True:
        with tracer.span("parse") as span:
            batch = next(iterator, None)
            if batch is not None:
                span.count("records", len(batch))
        if batch is None:
            return
        yield batch


def _cleaned(tracer, chunks):
    """Clean each chunk with :func:`clean_batch` inside a ``clean`` span."""
    for batch in chunks:
        with tracer.span("clean") as span:
            cleaned, _ = clean_batch(batch)
            span.count("records_in", len(batch))
            span.count("records_out", len(cleaned))
        yield cleaned


class Lifecycle:
    """The inputs of one job and one repetition of its lifecycle."""

    def __init__(self, job: dict) -> None:
        self.job = job
        inputs = Path(job["inputs"])
        self.inputs = inputs
        self.tower_ids = [s.tower_id for s in read_stations_csv(inputs / "stations.csv")]
        with (inputs / "city.pkl").open("rb") as handle:
            self.city = pickle.load(handle)  # written by this benchmark's generator
        self.window = TimeWindow(num_days=NUM_DAYS)
        self.matrix = None
        if job["fit_input"] == "matrix":
            self.matrix = TowerTrafficMatrix(
                tower_ids=np.asarray(self.tower_ids, dtype=np.int64),
                traffic=np.load(inputs / "history.npy"),
                window=self.window,
            )
        self.bundle_a = Path(job["work"]) / "A"
        self.bundle_b = Path(job["work"]) / "B"

    def _chunks(self, name: str, tracer):
        chunks = iter_record_batches_csv(
            self.inputs / name, chunk_size=self.job["chunk_size"]
        )
        return _parse_spans(tracer, chunks) if tracer.enabled else chunks

    def fit(self, tracer, metrics) -> TrafficPatternModel:
        """One fit of the six-day history through the public fit call."""
        model = TrafficPatternModel()
        workers = self.job["workers"]
        if self.matrix is not None:
            model.fit(self.matrix, city=self.city, tracer=tracer)
        elif workers:
            model.fit_batches(
                self._chunks("history.csv", tracer), self.window, self.tower_ids,
                city=self.city, workers=workers, prepare=clean_chunk,
                tracer=tracer, metrics=metrics,
            )
        else:
            model.fit_batches(
                _cleaned(tracer, self._chunks("history.csv", tracer)), self.window,
                self.tower_ids, city=self.city, tracer=tracer, metrics=metrics,
            )
        return model

    def finish(self, model: TrafficPatternModel, tracer, metrics) -> dict:
        """Save A, update with day seven, save B, and load both (mmap)."""
        fitted = model.result
        with tracer.span("save"):
            model.save(self.bundle_a)
        updated = model.update(
            _cleaned(tracer, self._chunks("day7.csv", tracer)),
            workers=0, tracer=tracer, metrics=metrics,
        )
        with tracer.span("save"):
            model.save(self.bundle_b)
        with tracer.span("load"):
            loaded_a = TrafficPatternModel.load(self.bundle_a, mmap=True)
        with tracer.span("load"):
            loaded_b = TrafficPatternModel.load(self.bundle_b, mmap=True)
        return {
            "fitted": fitted,
            "updated": updated,
            "loaded": (loaded_a.result, loaded_b.result),
        }


def _same(actual: np.ndarray, expected: np.ndarray, exact: bool) -> bool:
    if actual.shape != expected.shape:
        return False
    if exact:
        return bool(np.array_equal(actual, expected))
    return bool(np.allclose(actual, expected, rtol=1e-9, atol=0.0))


def _round_trip_failures(name: str, result, loaded) -> list[str]:
    pairs = {
        "tower_ids": (result.tower_ids, loaded.tower_ids),
        "raw traffic": (result.vectorized.raw.traffic, loaded.vectorized.raw.traffic),
        "vectors": (result.vectorized.vectors, loaded.vectorized.vectors),
        "labels": (result.labels, loaded.labels),
        "amplitudes": (result.frequency_features.amplitudes,
                       loaded.frequency_features.amplitudes),
        "phases": (result.frequency_features.phases, loaded.frequency_features.phases),
    }
    if result.representatives is not None:
        pairs["representatives"] = (result.representatives.tower_ids,
                                    loaded.representatives.tower_ids)
    return [
        f"bundle {name} round trip changed {what}"
        for what, (before, after) in pairs.items()
        if not _same(np.asarray(after), np.asarray(before), exact=True)
    ]


def check(lifecycle: Lifecycle, rep: dict) -> tuple[list[str], float]:
    """Check one repetition; returns ``(failures, label_accuracy)``."""
    job = lifecycle.job
    reference = np.load(Path(job["reference"]))
    truth = np.load(lifecycle.inputs / "truth.npz")
    fitted, updated = rep["fitted"], rep["updated"]
    exact = job["workers"] == 0
    failures = []
    if not np.array_equal(fitted.tower_ids, truth["tower_ids"]):
        failures.append("fitted tower rows differ from the station directory")
        return failures, 0.0
    if not _same(fitted.vectorized.raw.traffic, reference["fit"], exact):
        failures.append(
            "fit traffic matrix differs from the serial reference aggregate"
            + ("" if exact else " beyond rtol 1e-9")
        )
    if not _same(updated.vectorized.raw.traffic, reference["update"], exact):
        failures.append("updated traffic matrix differs from the reference")
    if not exact:
        serial = TrafficPatternModel().fit(
            TowerTrafficMatrix(tower_ids=fitted.tower_ids, traffic=reference["fit"],
                               window=lifecycle.window),
            city=lifecycle.city,
        )
        if not np.array_equal(serial.labels, fitted.labels):
            failures.append("parallel fit labels differ from the serial fit's")
    stats = updated.extras["update_stats"]
    expected = int(reference["day7_records"])
    if not stats["records_seen"] == stats["records_folded"] == expected:
        failures.append(
            f"update folded {stats['records_folded']} of {stats['records_seen']} "
            f"records; expected all {expected} cleaned day-7 records"
        )
    for name, result, loaded in zip("AB", (fitted, updated), rep["loaded"]):
        failures += _round_trip_failures(name, result, loaded)

    regions = [fitted.region_of_cluster(int(label)) for label in fitted.labels]
    hits = [r is not None and r.index == t for r, t in zip(regions, truth["region_index"])]
    return failures, float(np.mean(hits))


def _peak_rss_mb() -> float:
    """This process's peak RSS plus its largest waited-for child's, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _bundle_bytes(path: Path) -> int:
    return sum(entry.stat().st_size for entry in path.rglob("*") if entry.is_file())


#: Reference loops timed before the first fit and after every fit.
REFERENCE_REPEATS = 4


def main(argv: list[str]) -> int:
    job = json.loads(Path(argv[0]).read_text())
    lifecycle = Lifecycle(job)
    speed = HostSpeed()
    fit_s = []
    references = speed.sample(REFERENCE_REPEATS)
    start = time.perf_counter()
    while True:
        tracer = Tracer() if job["traced"] else NULL_TRACER
        metrics = MetricsRegistry() if job["traced"] else None
        fit_start = time.perf_counter()
        model = lifecycle.fit(tracer, metrics)
        fit_s.append(time.perf_counter() - fit_start)
        references += speed.sample(REFERENCE_REPEATS)
        if time.perf_counter() - start >= job["budget_s"]:
            break
    rep = lifecycle.finish(model, tracer, metrics)
    peak_rss_mb = _peak_rss_mb()
    failures, accuracy = check(lifecycle, rep)
    report = {
        "fit_s": fit_s,
        "references_s": references,
        "peak_rss_mb": peak_rss_mb,
        "failures": failures,
        "num_patterns": rep["fitted"].num_clusters,
        "label_accuracy": accuracy,
        "bundle_bytes": _bundle_bytes(lifecycle.bundle_a),
    }
    if job["traced"]:
        report["trace"] = tracer.to_dict()
        report["trace"]["metrics"] = metrics.snapshot()
    Path(job["report"]).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
