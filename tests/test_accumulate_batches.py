"""The one path from records to the slot grid: ``accumulate_batches``.

``aggregate_batches``, ``TrafficPatternModel.fit_batches`` and ``update``
all fold their records through
:func:`repro.vectorize.aggregate.accumulate_batches`, one chunk after
another in stream order.  These tests pin its row lookup, its edge cases,
its ``prepare`` hook, the counters it reports, that a bare
:class:`RecordBatch` is a stream of one, and that ``workers`` — accepted by
the model's entry points and ignored — cannot change a fitted array.
"""

import numpy as np
import pytest

from repro.core.config import ModelConfig
from repro.core.model import TrafficPatternModel
from repro.ingest.batch import RecordBatch
from repro.ingest.dedup import clean_batch, clean_chunk
from repro.obs import MetricsRegistry, Tracer
from repro.utils.timeutils import SECONDS_PER_DAY, SLOT_SECONDS, TimeWindow
from repro.vectorize.aggregate import TowerRowIndex, accumulate_batches, aggregate_batches

NUM_TOWERS = 40
WINDOW = TimeWindow(num_days=7)
TOWER_IDS = list(range(NUM_TOWERS))


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


def day_batch(rng, day, n=2500):
    """One day of already-clean records."""
    batch = make_batch(rng, n=n)
    starts = rng.uniform(day * SECONDS_PER_DAY, (day + 1) * SECONDS_PER_DAY, size=n)
    return RecordBatch(
        user_id=batch.user_id,
        tower_id=batch.tower_id,
        start_s=starts,
        end_s=np.minimum(starts + batch.duration_s, float(WINDOW.num_seconds)),
        bytes_used=batch.bytes_used,
        network=batch.network,
    )


@pytest.fixture(scope="module")
def daily_batches():
    rng = np.random.default_rng(6)
    return [day_batch(rng, day) for day in range(WINDOW.num_days)]


def bundle_arrays(model, path):
    """Save ``model`` and return its bundle's arrays as raw bytes by name."""
    with np.load(model.save(path) / "arrays.npz") as archive:
        return {name: archive[name].tobytes() for name in archive.files}


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


class TestEdgeCases:
    def test_empty_stream_yields_zero_matrix(self):
        matrix = aggregate_batches(iter(()), WINDOW, TOWER_IDS)
        assert matrix.traffic.shape == (NUM_TOWERS, WINDOW.num_slots)
        assert not matrix.traffic.any()

    def test_zero_record_batches_are_harmless(self):
        matrix = aggregate_batches(
            [RecordBatch.empty(), RecordBatch.empty()], WINDOW, TOWER_IDS
        )
        assert not matrix.traffic.any()

    def test_unknown_towers_are_ignored(self):
        rng = np.random.default_rng(1)
        known = make_batch(rng, n=1000)
        unknown = make_batch(rng, n=1000, tower_offset=10_000)
        alone = aggregate_batches([known], WINDOW, TOWER_IDS)
        mixed = aggregate_batches([known, unknown], WINDOW, TOWER_IDS)
        assert mixed.traffic.tobytes() == alone.traffic.tobytes()

    def test_no_towers_yields_empty_matrix(self):
        rng = np.random.default_rng(2)
        matrix = aggregate_batches([make_batch(rng, n=100)], WINDOW, [])
        assert matrix.traffic.shape == (0, WINDOW.num_slots)


class TestPrepare:
    def test_clean_chunk_prepare_matches_cleaning_first(self):
        rng = np.random.default_rng(3)
        base = make_batch(rng, n=3000)
        corrupted = RecordBatch.concat([base, base.take(np.arange(200))])
        chunks = list(corrupted.iter_chunks(500))
        cleaned_first = aggregate_batches(
            [clean_batch(chunk)[0] for chunk in chunks], WINDOW, TOWER_IDS
        )
        prepared = aggregate_batches(chunks, WINDOW, TOWER_IDS, prepare=clean_chunk)
        assert prepared.traffic.tobytes() == cleaned_first.traffic.tobytes()

    def test_prepare_runs_before_the_scatter(self):
        # Doubling every byte count is exact in binary floating point, so
        # the doubled grid is exactly twice the plain one.
        rng = np.random.default_rng(4)
        chunks = [make_batch(rng, n=800) for _ in range(4)]
        plain = aggregate_batches(chunks, WINDOW, TOWER_IDS)
        doubled = aggregate_batches(
            chunks, WINDOW, TOWER_IDS,
            prepare=lambda batch: batch.with_bytes(batch.bytes_used * 2.0),
        )
        assert doubled.traffic.tobytes() == (2.0 * plain.traffic).tobytes()

    def test_records_seen_are_counted_after_prepare(self):
        rng = np.random.default_rng(5)
        base = make_batch(rng, n=600)
        doubled = RecordBatch.concat([base, base])
        traffic = np.zeros((NUM_TOWERS, WINDOW.num_slots))
        seen, folded = accumulate_batches(
            traffic, TowerRowIndex(TOWER_IDS), [doubled], prepare=clean_chunk
        )
        assert seen == folded == len(clean_batch(doubled)[0]) == 600


class TestBareBatch:
    """One in-memory batch is a stream of one, at every entry point."""

    def test_accumulate_counts_a_bare_batch_as_one_chunk(self, daily_batches):
        tracer = Tracer()
        traffic = np.zeros((NUM_TOWERS, WINDOW.num_slots))
        with tracer.span("ingest") as span:
            accumulate_batches(
                traffic, TowerRowIndex(TOWER_IDS), daily_batches[0], tracer=tracer
            )
        assert span.counters == {
            "chunks": 1,
            "records_seen": len(daily_batches[0]),
            "records_folded": len(daily_batches[0]),
        }

    def test_aggregate_takes_a_bare_batch(self, daily_batches):
        bare = aggregate_batches(daily_batches[0], WINDOW, TOWER_IDS)
        listed = aggregate_batches([daily_batches[0]], WINDOW, TOWER_IDS)
        assert bare.traffic.tobytes() == listed.traffic.tobytes()

    def test_fit_batches_takes_a_bare_batch(self, daily_batches):
        trace = RecordBatch.concat(daily_batches[:4])
        bare = TrafficPatternModel(ModelConfig(num_clusters=3)).fit_batches(
            trace, WINDOW, TOWER_IDS
        )
        listed = TrafficPatternModel(ModelConfig(num_clusters=3)).fit_batches(
            [trace], WINDOW, TOWER_IDS
        )
        assert bare.vectorized.raw.traffic.tobytes() == (
            listed.vectorized.raw.traffic.tobytes()
        )
        assert bare.extras["stage_fingerprints"] == listed.extras["stage_fingerprints"]

    def test_update_takes_a_bare_batch(self, daily_batches):
        def fitted():
            model = TrafficPatternModel(ModelConfig(num_clusters=3))
            model.fit_batches(daily_batches[:5], WINDOW, TOWER_IDS)
            return model

        day = RecordBatch.concat(daily_batches[5:])
        bare = fitted().update(day)
        listed = fitted().update([day])
        assert bare.vectorized.raw.traffic.tobytes() == (
            listed.vectorized.raw.traffic.tobytes()
        )
        assert bare.extras["update_stats"] == listed.extras["update_stats"]


class TestWorkersCannotChangeTheModel:
    """``workers`` is accepted and ignored: one path, so one model."""

    @pytest.fixture(scope="class")
    def chunks(self):
        rng = np.random.default_rng(2015)
        return [make_batch(rng, n=3000) for _ in range(9)]

    def _fit(self, chunks, workers):
        model = TrafficPatternModel(ModelConfig(num_clusters=3))
        model.fit_batches(chunks, WINDOW, TOWER_IDS, workers=workers)
        return model

    @pytest.fixture(scope="class")
    def serial(self, chunks, tmp_path_factory):
        model = self._fit(chunks, 0)
        return model, bundle_arrays(model, tmp_path_factory.mktemp("serial") / "b")

    @pytest.mark.parametrize("workers", [2, -1])
    def test_fit_batches(self, chunks, serial, workers, tmp_path):
        reference, reference_arrays = serial
        model = self._fit(chunks, workers)
        assert model.result.vectorized.raw.traffic.tobytes() == (
            reference.result.vectorized.raw.traffic.tobytes()
        )
        assert model.result.extras["stage_fingerprints"] == (
            reference.result.extras["stage_fingerprints"]
        )
        assert bundle_arrays(model, tmp_path / "b") == reference_arrays

    def test_update(self, chunks, tmp_path):
        updated = {}
        for workers in (0, 2):
            model = self._fit(chunks[:6], 0)
            result = model.update(chunks[6:], workers=workers)
            updated[workers] = (result, bundle_arrays(model, tmp_path / str(workers)))
        (serial, serial_arrays), (other, other_arrays) = updated[0], updated[2]
        assert other.vectorized.raw.traffic.tobytes() == (
            serial.vectorized.raw.traffic.tobytes()
        )
        assert other.extras["stage_fingerprints"] == serial.extras["stage_fingerprints"]
        assert other.extras["stages_reused"] == serial.extras["stages_reused"]
        assert other_arrays == serial_arrays


class TestIngestCounters:
    """Fit and update: one counter set, on the span and in the metrics."""

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
        return [known, RecordBatch.empty(), unknown, late, mixed, RecordBatch.empty()]

    @pytest.mark.parametrize("call", ["fit", "update"])
    def test_every_path_reports_the_same_counters(self, awkward_stream, call):
        expected = {"chunks": 6, "records_seen": 2_375, "records_folded": 1_600}
        tracer, metrics = Tracer(), MetricsRegistry()
        model = TrafficPatternModel(ModelConfig(num_clusters=3))
        if call == "fit":
            model.fit_batches(
                awkward_stream, WINDOW, TOWER_IDS, tracer=tracer, metrics=metrics
            )
        else:
            model.fit_batches([make_batch(np.random.default_rng(9))], WINDOW, TOWER_IDS)
            result = model.update(awkward_stream, tracer=tracer, metrics=metrics)
            assert result.extras["update_stats"] == {
                "records_seen": expected["records_seen"],
                "records_folded": expected["records_folded"],
            }
        (root,) = tracer.roots
        ingest = root.children[0]
        assert (root.name, ingest.name) == (call, "ingest")
        assert ingest.counters == expected
        assert ingest.children == []
        ingest_metrics = {
            name: value
            for name, value in metrics.snapshot()["counters"].items()
            if name.startswith("ingest.")
        }
        assert ingest_metrics == {f"ingest.{name}": n for name, n in expected.items()}
