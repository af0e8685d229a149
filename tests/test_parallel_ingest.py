"""Parallel↔serial equivalence suite for the shard-parallel ingest plane.

The serial chunk-streaming path (``workers=0``) is the equivalence
reference: parallel matrices must agree with it to within the documented
float tolerance (the parallel reducer sums per-shard partials, a different
accumulation order than the serial single-accumulator pass), and must be
bit-for-bit deterministic run-to-run for a fixed worker count.
"""

import os

import numpy as np
import pytest

from repro.core.config import ModelConfig
from repro.core.model import TrafficPatternModel
from repro.ingest.batch import RecordBatch
from repro.ingest.dedup import clean_batch
from repro.obs import MetricsRegistry, Tracer
from repro.utils.timeutils import SECONDS_PER_DAY, SLOT_SECONDS, TimeWindow
from repro.vectorize.aggregate import TowerRowIndex, aggregate_batches
from repro.vectorize.parallel import ParallelIngestError, clean_chunk, resolve_workers

NUM_TOWERS = 40
WINDOW = TimeWindow(num_days=7)
TOWER_IDS = list(range(NUM_TOWERS))

#: Documented float tolerance of parallel-vs-serial matrices (ulp-level
#: differences from the different accumulation order).
RTOL = 1e-9

#: Tower id whose presence makes :func:`_fail_on_marker` blow up.
MARKER_TOWER = 987_654


def make_batch(rng, n=4000, num_towers=NUM_TOWERS, tower_offset=0):
    """A batch of synthetic already-clean records."""
    starts = rng.uniform(0, WINDOW.num_seconds, size=n)
    durations = rng.exponential(0.6 * SLOT_SECONDS, size=n)
    durations[rng.random(n) < 0.1] *= 8.0  # multi-slot records
    durations[rng.random(n) < 0.05] = 0.0  # zero-duration records
    return RecordBatch(
        user_id=rng.integers(0, 500, size=n),
        tower_id=rng.integers(tower_offset, tower_offset + num_towers, size=n),
        start_s=starts,
        end_s=np.minimum(starts + durations, float(WINDOW.num_seconds)),
        bytes_used=rng.lognormal(9.0, 1.0, size=n),
        network=np.where(rng.random(n) < 0.5, 1, 0).astype(np.uint8),
    )


def empty_batch():
    return RecordBatch(
        user_id=np.array([], dtype=np.int64),
        tower_id=np.array([], dtype=np.int64),
        start_s=np.array([]),
        end_s=np.array([]),
        bytes_used=np.array([]),
        network=np.array([], dtype=np.uint8),
    )


@pytest.fixture(scope="module")
def chunk_stream():
    rng = np.random.default_rng(2015)
    return [make_batch(rng) for _ in range(9)]


@pytest.fixture(scope="module")
def serial_matrix(chunk_stream):
    return aggregate_batches(chunk_stream, WINDOW, TOWER_IDS)


# Module-level prepare callables: the parallel plane pickles them into the
# workers, so they cannot be lambdas or closures.


def _double_bytes(batch):
    return batch.with_bytes(batch.bytes_used * 2.0)


def _fail_on_marker(batch):
    if np.any(batch.tower_id == MARKER_TOWER):
        raise ValueError("synthetic prepare failure on the marker tower")
    return batch


def _exit_hard(batch):
    os._exit(3)


class TestResolveWorkers:
    def test_zero_means_serial(self):
        assert resolve_workers(0) == 0

    def test_positive_passthrough(self):
        assert resolve_workers(3) == 3

    def test_minus_one_means_all_cores(self):
        assert resolve_workers(-1) >= 1

    def test_below_minus_one_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            resolve_workers(-2)


class TestTowerRowIndex:
    def test_maps_ids_to_rows_in_given_order(self):
        index = TowerRowIndex(np.array([30, 10, 20]))
        rows = index.rows_of(np.array([10, 20, 30, 10]))
        assert rows.tolist() == [1, 2, 0, 1]

    def test_unknown_ids_map_to_minus_one(self):
        index = TowerRowIndex(np.array([5, 7]))
        assert index.rows_of(np.array([5, 6, 8, 7])).tolist() == [0, -1, -1, 1]

    def test_empty_index_maps_everything_to_minus_one(self):
        index = TowerRowIndex(np.array([], dtype=np.int64))
        assert index.rows_of(np.array([1, 2])).tolist() == [-1, -1]
        assert len(index) == 0


class TestParallelSerialEquivalence:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_matrix_matches_serial_within_tolerance(
        self, chunk_stream, serial_matrix, workers
    ):
        parallel = aggregate_batches(
            chunk_stream, WINDOW, TOWER_IDS, workers=workers
        )
        assert np.array_equal(parallel.tower_ids, serial_matrix.tower_ids)
        assert parallel.window.num_slots == serial_matrix.window.num_slots
        assert np.allclose(
            parallel.traffic, serial_matrix.traffic, rtol=RTOL, atol=0.0
        )

    @pytest.mark.parametrize("workers", [2, 4])
    def test_deterministic_run_to_run(self, chunk_stream, workers):
        first = aggregate_batches(chunk_stream, WINDOW, TOWER_IDS, workers=workers)
        second = aggregate_batches(chunk_stream, WINDOW, TOWER_IDS, workers=workers)
        assert np.array_equal(first.traffic, second.traffic)

    def test_prepare_runs_inside_the_workers(self, chunk_stream):
        serial = aggregate_batches(
            chunk_stream, WINDOW, TOWER_IDS, prepare=_double_bytes
        )
        parallel = aggregate_batches(
            chunk_stream, WINDOW, TOWER_IDS, workers=2, prepare=_double_bytes
        )
        assert np.allclose(parallel.traffic, serial.traffic, rtol=RTOL, atol=0.0)

    def test_clean_chunk_prepare_matches_serial_cleaning(self):
        rng = np.random.default_rng(3)
        base = make_batch(rng, n=3000)
        corrupted = RecordBatch.concat([base, base.take(np.arange(200))])
        chunks = list(corrupted.iter_chunks(500))

        def serial_cleaned():
            for chunk in chunks:
                cleaned, _ = clean_batch(chunk)
                yield cleaned

        serial = aggregate_batches(serial_cleaned(), WINDOW, TOWER_IDS)
        parallel = aggregate_batches(
            chunks, WINDOW, TOWER_IDS, workers=2, prepare=clean_chunk
        )
        assert np.allclose(parallel.traffic, serial.traffic, rtol=RTOL, atol=0.0)

    def test_stats_count_folded_records(self, chunk_stream):
        tracer = Tracer()
        with tracer.span("ingest") as span:
            matrix = aggregate_batches(
                chunk_stream, WINDOW, TOWER_IDS, workers=2, tracer=tracer
            )
        total = sum(len(batch) for batch in chunk_stream)
        assert [child.name for child in span.children] == ["worker-0", "worker-1"]
        assert span.counters == {
            "chunks": len(chunk_stream),
            "records_seen": total,
            "records_folded": total,  # every tower known, in-window
        }
        assert matrix.traffic.sum() > 0


class TestEdgeCases:
    def test_empty_stream_yields_zero_matrix(self):
        matrix = aggregate_batches(iter(()), WINDOW, TOWER_IDS, workers=2)
        assert matrix.traffic.shape == (NUM_TOWERS, WINDOW.num_slots)
        assert not matrix.traffic.any()

    def test_zero_record_batches_are_harmless(self):
        matrix = aggregate_batches(
            [empty_batch(), empty_batch()], WINDOW, TOWER_IDS, workers=2
        )
        assert not matrix.traffic.any()

    def test_unknown_towers_are_ignored(self):
        rng = np.random.default_rng(1)
        known = make_batch(rng, n=1000)
        unknown = make_batch(rng, n=1000, tower_offset=10_000)
        serial = aggregate_batches([known], WINDOW, TOWER_IDS)
        parallel = aggregate_batches(
            [known, unknown], WINDOW, TOWER_IDS, workers=2
        )
        assert np.allclose(parallel.traffic, serial.traffic, rtol=RTOL, atol=0.0)

    def test_no_towers_yields_empty_matrix(self):
        rng = np.random.default_rng(2)
        matrix = aggregate_batches([make_batch(rng, n=100)], WINDOW, [], workers=2)
        assert matrix.traffic.shape == (0, WINDOW.num_slots)

    def test_workers_below_minus_one_rejected(self, chunk_stream):
        with pytest.raises(ValueError, match="workers"):
            aggregate_batches(chunk_stream, WINDOW, TOWER_IDS, workers=-2)


class TestWorkerFailures:
    def test_prepare_exception_surfaces_as_clean_error(self):
        rng = np.random.default_rng(4)
        poison = make_batch(rng, n=50)
        poison.tower_id[0] = MARKER_TOWER
        stream = [make_batch(rng, n=50) for _ in range(6)] + [poison]
        with pytest.raises(ParallelIngestError, match="synthetic prepare failure"):
            aggregate_batches(
                stream, WINDOW, TOWER_IDS, workers=2, prepare=_fail_on_marker
            )

    def test_worker_hard_death_is_detected_not_hung(self):
        rng = np.random.default_rng(5)
        stream = [make_batch(rng, n=50) for _ in range(8)]
        with pytest.raises(ParallelIngestError, match="died with exit code 3"):
            aggregate_batches(stream, WINDOW, TOWER_IDS, workers=2, prepare=_exit_hard)


class TestModelIntegration:
    @pytest.fixture(scope="class")
    def daily_batches(self):
        rng = np.random.default_rng(6)
        batches = []
        for day in range(WINDOW.num_days):
            batch = make_batch(rng, n=2500)
            starts = rng.uniform(
                day * SECONDS_PER_DAY, (day + 1) * SECONDS_PER_DAY, size=len(batch)
            )
            batch = RecordBatch(
                user_id=batch.user_id,
                tower_id=batch.tower_id,
                start_s=starts,
                end_s=np.minimum(
                    starts + batch.duration_s, float(WINDOW.num_seconds)
                ),
                bytes_used=batch.bytes_used,
                network=batch.network,
            )
            batches.append(batch)
        return batches

    def test_fit_batches_parallel_matches_serial_matrix(self, daily_batches):
        serial = TrafficPatternModel(ModelConfig(num_clusters=3))
        serial.fit_batches(daily_batches[:4], WINDOW, TOWER_IDS)
        parallel = TrafficPatternModel(ModelConfig(num_clusters=3))
        parallel.fit_batches(daily_batches[:4], WINDOW, TOWER_IDS, workers=2)
        assert np.allclose(
            parallel.result.vectorized.raw.traffic,
            serial.result.vectorized.raw.traffic,
            rtol=RTOL,
            atol=0.0,
        )

    def test_update_parallel_matches_serial_update(self, daily_batches):
        def fitted():
            model = TrafficPatternModel(ModelConfig(num_clusters=3))
            model.fit_batches(daily_batches[:5], WINDOW, TOWER_IDS)
            return model

        serial = fitted()
        serial_result = serial.update(daily_batches[5:])
        parallel = fitted()
        parallel_result = parallel.update(daily_batches[5:], workers=2)
        assert np.allclose(
            parallel_result.vectorized.raw.traffic,
            serial_result.vectorized.raw.traffic,
            rtol=RTOL,
            atol=0.0,
        )
        assert (
            parallel_result.extras["update_stats"]
            == serial_result.extras["update_stats"]
        )


class TestIngestCounters:
    """Serial and parallel, fit and update: one counter set on every path."""

    @pytest.fixture(scope="class")
    def awkward_stream(self):
        # Known towers in the window, unknown towers, records starting past
        # the window's end, a chunk mixing all three, and empty chunks.
        rng = np.random.default_rng(8)
        shift = float(WINDOW.num_seconds)
        early = make_batch(rng, n=400)
        late = RecordBatch(
            user_id=early.user_id,
            tower_id=early.tower_id,
            start_s=early.start_s + shift,
            end_s=early.end_s + shift,
            bytes_used=early.bytes_used,
            network=early.network,
        )
        known = make_batch(rng, n=1500)
        unknown = make_batch(rng, n=300, tower_offset=10_000)
        mixed = RecordBatch.concat(
            [make_batch(rng, n=100), unknown.take(np.arange(50)), late.take(np.arange(25))]
        )
        return [known, empty_batch(), unknown, late, mixed, empty_batch()]

    @pytest.mark.parametrize("workers", [0, 2])
    @pytest.mark.parametrize("call", ["fit", "update"])
    def test_every_path_reports_the_same_counters(self, awkward_stream, call, workers):
        expected = {"chunks": 6, "records_seen": 2_375, "records_folded": 1_600}
        tracer, metrics = Tracer(), MetricsRegistry()
        model = TrafficPatternModel(ModelConfig(num_clusters=3))
        if call == "fit":
            model.fit_batches(
                awkward_stream, WINDOW, TOWER_IDS,
                workers=workers, tracer=tracer, metrics=metrics,
            )
        else:
            model.fit_batches([make_batch(np.random.default_rng(9))], WINDOW, TOWER_IDS)
            result = model.update(
                awkward_stream, workers=workers, tracer=tracer, metrics=metrics
            )
            assert result.extras["update_stats"] == {
                "records_seen": expected["records_seen"],
                "records_folded": expected["records_folded"],
            }
        (root,) = tracer.roots
        ingest = root.children[0]
        assert (root.name, ingest.name) == (call, "ingest")
        assert ingest.counters == expected
        ingest_metrics = {
            name: value
            for name, value in metrics.snapshot()["counters"].items()
            if name.startswith("ingest.")
        }
        assert ingest_metrics == {f"ingest.{name}": n for name, n in expected.items()}
        assert [child.name for child in ingest.children] == [
            f"worker-{worker_id}" for worker_id in range(workers)
        ]
        for name, value in expected.items():
            worker_total = sum(child.counters[name] for child in ingest.children)
            assert worker_total == (value if workers else 0)
