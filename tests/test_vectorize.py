"""Tests for the traffic vectorizer (slots, aggregation, normalisation, API)."""

import numpy as np
import pytest

from repro.ingest.batch import RecordBatch
from repro.ingest.records import TrafficRecord
from repro.utils.timeutils import TimeWindow
from repro.vectorize.aggregate import aggregate_batches
from repro.vectorize.normalize import NormalizationMethod, normalize_matrix, normalize_vector
from repro.vectorize.slots import (
    slot_edges,
    slot_spans_of_intervals,
    split_bytes_over_slots_batch,
)
from repro.vectorize.vectorizer import TrafficVectorizer, VectorizedTraffic


def make_record(start, end, volume=100.0, user=1, tower=0):
    return TrafficRecord(
        user_id=user, tower_id=tower, start_s=start, end_s=end, bytes_used=volume
    )


def batch_of(records):
    return RecordBatch.from_records(records)


def aggregate_one(batch, window, tower_ids=None):
    """Aggregate one batch; rows default to its sorted tower ids."""
    if tower_ids is None:
        tower_ids = np.unique(batch.tower_id)
    return aggregate_batches([batch], window, tower_ids)


def span(start, end):
    first, last = slot_spans_of_intervals(np.array([start]), np.array([end]))
    return int(first[0]), int(last[0])


def split(record, num_slots):
    """``{slot: bytes}`` of one record, through the columnar splitter."""
    record_index, slots, volumes = split_bytes_over_slots_batch(
        np.array([record.start_s]), np.array([record.end_s]),
        np.array([record.bytes_used]), num_slots,
    )
    assert record_index.tolist() == [0] * len(slots)
    return dict(zip(slots.tolist(), volumes.tolist()))


class TestSlots:
    def test_slot_edges(self):
        edges = slot_edges(3)
        assert np.array_equal(edges, np.array([0.0, 600.0, 1200.0, 1800.0]))

    def test_slot_edges_invalid(self):
        with pytest.raises(ValueError):
            slot_edges(0)

    def test_span_single_slot(self):
        assert span(10.0, 500.0) == (0, 0)

    def test_span_crossing_boundary(self):
        assert span(500.0, 700.0) == (0, 1)

    def test_span_ending_exactly_on_boundary(self):
        assert span(0.0, 600.0) == (0, 0)
        assert span(600.0, 1800.0) == (1, 2)

    def test_span_instantaneous(self):
        assert span(650.0, 650.0) == (1, 1)
        assert span(600.0, 600.0) == (1, 1)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_span_of_an_end_past_the_int64_range_is_clipped(self):
        first, last = slot_spans_of_intervals(
            np.array([0.0, 5.0, 1e300]), np.array([1e300, np.finfo(float).max, 1e300])
        )
        assert first.tolist()[:2] == [0, 0]
        assert np.all(last > 2**61) and np.all(first <= last)

    def test_split_conserves_volume(self):
        record = make_record(300.0, 1500.0, volume=120.0)
        assert sum(split(record, 10).values()) == pytest.approx(120.0)

    def test_split_proportional_to_overlap(self):
        record = make_record(300.0, 900.0, volume=100.0)  # half in slot 0, half in slot 1
        contributions = split(record, 10)
        assert contributions == {0: 50.0, 1: 50.0}

    def test_split_zero_duration_keeps_all_bytes_in_its_slot(self):
        assert split(make_record(1250.0, 1250.0, volume=7.0), 10) == {2: 7.0}
        assert split(make_record(1200.0, 1200.0, volume=7.0), 10) == {2: 7.0}

    def test_split_outside_window_dropped(self):
        record = make_record(500.0, 1300.0, volume=90.0)
        contributions = split(record, 1)
        assert set(contributions) == {0}
        assert contributions[0] == pytest.approx(90.0 * 100.0 / 800.0)

    def test_split_record_starting_past_the_window_is_dropped(self):
        assert split(make_record(6000.0, 6000.0, volume=5.0), 10) == {}
        assert split(make_record(6100.0, 7000.0, volume=5.0), 10) == {}

    def test_split_emits_record_then_slot_order(self):
        record_index, slots, _ = split_bytes_over_slots_batch(
            np.array([700.0, 0.0]), np.array([1900.0, 650.0]), np.array([1.0, 1.0]), 10
        )
        assert record_index.tolist() == [0, 0, 0, 1, 1]
        assert slots.tolist() == [1, 2, 3, 0, 1]

    def test_split_invalid_num_slots(self):
        with pytest.raises(ValueError):
            split(make_record(0.0, 1.0), 0)


class TestAggregate:
    def test_basic_aggregation(self):
        window = TimeWindow(num_days=1)
        records = [
            make_record(0.0, 300.0, 60.0, tower=0),
            make_record(100.0, 200.0, 40.0, tower=0),
            make_record(700.0, 800.0, 10.0, tower=1),
        ]
        matrix = aggregate_one(batch_of(records), window)
        assert matrix.num_towers == 2
        assert matrix.traffic[0, 0] == pytest.approx(100.0)
        assert matrix.traffic[1, 1] == pytest.approx(10.0)

    def test_total_volume_conserved(self):
        window = TimeWindow(num_days=1)
        rng = np.random.default_rng(3)
        records = [
            make_record(float(s), float(s) + float(d), float(v), tower=int(t))
            for s, d, v, t in zip(
                rng.uniform(0, 80_000, 300),
                rng.uniform(1, 3000, 300),
                rng.uniform(1, 100, 300),
                rng.integers(0, 5, 300),
            )
        ]
        # Clamp ends inside the window so no volume is dropped.
        records = [
            r if r.end_s <= window.num_seconds else make_record(r.start_s, window.num_seconds, r.bytes_used, tower=r.tower_id)
            for r in records
        ]
        matrix = aggregate_one(batch_of(records), window)
        assert matrix.traffic.sum() == pytest.approx(sum(r.bytes_used for r in records))

    def test_explicit_tower_ids_and_zero_rows(self):
        window = TimeWindow(num_days=1)
        records = [make_record(0.0, 10.0, 5.0, tower=3)]
        matrix = aggregate_one(batch_of(records), window, [3, 7])
        assert matrix.num_towers == 2
        assert matrix.traffic[1].sum() == 0.0

    def test_unlisted_towers_ignored(self):
        window = TimeWindow(num_days=1)
        records = [make_record(0.0, 10.0, 5.0, tower=3), make_record(0.0, 10.0, 5.0, tower=9)]
        matrix = aggregate_one(batch_of(records), window, [3])
        assert matrix.num_towers == 1
        assert matrix.traffic.sum() == pytest.approx(5.0)

    def test_truncated_record_keeps_only_its_in_window_share(self):
        window = TimeWindow(num_days=1)
        end = window.num_seconds + 1200.0
        start = window.num_seconds - 300.0
        matrix = aggregate_one(batch_of([make_record(start, end, 150.0)]), window)
        assert matrix.traffic[0, -1] == 150.0 * (300.0 / 1500.0)
        assert matrix.traffic.sum() == 150.0 * (300.0 / 1500.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("end", [1e20, 1e300, np.finfo(float).max])
    def test_far_end_spreads_bytes_by_the_closed_form(self, end):
        # Before the slot indices were clipped, an end past the int64 range
        # cast to an undefined index and the whole volume landed in the
        # start slot.
        window = TimeWindow(num_days=1)
        start, volume = 100.0, 3.0e6
        matrix = aggregate_one(batch_of([make_record(start, end, volume)]), window)
        edges = slot_edges(window.num_slots)
        overlap = np.minimum(edges[1:], end) - np.maximum(edges[:-1], start)
        expected = volume * (overlap / (end - start))
        assert np.all(matrix.traffic[0] > 0)
        assert matrix.traffic[0] == pytest.approx(expected, rel=1e-12, abs=0)

    def test_streaming_matches_in_memory(self):
        window = TimeWindow(num_days=1)
        rng = np.random.default_rng(5)
        records = [
            make_record(float(s), float(s) + 60.0, float(v), tower=int(t))
            for s, v, t in zip(
                rng.uniform(0, 80_000, 500), rng.uniform(1, 100, 500), rng.integers(0, 4, 500)
            )
        ]
        batch = batch_of(records)
        in_memory = aggregate_one(batch, window, [0, 1, 2, 3])
        streaming = aggregate_batches(batch.iter_chunks(64), window, [0, 1, 2, 3])
        assert np.array_equal(in_memory.traffic, streaming.traffic)

    def test_streaming_invalid_chunk_size(self):
        with pytest.raises(ValueError):
            aggregate_batches(RecordBatch.empty().iter_chunks(0), TimeWindow(num_days=1), [0])


class TestNormalize:
    def test_zscore_rows(self):
        matrix = np.array([[1.0, 2.0, 3.0], [5.0, 5.0, 5.0]])
        out = normalize_matrix(matrix, NormalizationMethod.ZSCORE)
        assert np.mean(out[0]) == pytest.approx(0.0, abs=1e-12)
        assert np.all(out[1] == 0.0)

    def test_max_rows(self):
        matrix = np.array([[1.0, 2.0, 4.0], [0.0, 0.0, 0.0]])
        out = normalize_matrix(matrix, NormalizationMethod.MAX)
        assert out[0, 2] == 1.0
        assert np.all(out[1] == 0.0)

    def test_minmax_vector(self):
        out = normalize_vector(np.array([2.0, 3.0, 4.0]), NormalizationMethod.MINMAX)
        assert out[0] == 0.0 and out[-1] == 1.0

    def test_none_is_identity(self):
        values = np.array([1.0, 5.0])
        assert np.array_equal(normalize_vector(values, NormalizationMethod.NONE), values)

    def test_matrix_requires_2d(self):
        with pytest.raises(ValueError):
            normalize_matrix(np.ones(5), NormalizationMethod.ZSCORE)


class TestVectorizer:
    def test_from_matrix_keeps_raw(self, scenario):
        vectorizer = TrafficVectorizer()
        vectorized = vectorizer.from_matrix(scenario.traffic)
        assert isinstance(vectorized, VectorizedTraffic)
        assert vectorized.raw is scenario.traffic
        assert vectorized.vectors.shape == scenario.traffic.traffic.shape
        # z-scored rows have ~zero mean
        assert np.allclose(vectorized.vectors.mean(axis=1), 0.0, atol=1e-9)

    def test_vector_lookup(self, scenario):
        vectorized = TrafficVectorizer().from_matrix(scenario.traffic)
        tower_id = int(scenario.traffic.tower_ids[7])
        assert np.array_equal(vectorized.vector(tower_id), vectorized.vectors[7])
        with pytest.raises(KeyError):
            vectorized.vector(123456)

    def test_unnormalised_vectors_are_the_aggregate(self):
        window = TimeWindow(num_days=1)
        batch = batch_of([
            make_record(0.0, 300.0, 60.0, tower=0),
            make_record(700.0, 900.0, 30.0, tower=1),
        ])
        manual = aggregate_one(batch, window)
        vectorized = TrafficVectorizer(method=NormalizationMethod.NONE).from_matrix(manual)
        assert np.array_equal(vectorized.vectors, manual.traffic)

    def test_paper_dimensions(self):
        # 28 days at 10-minute granularity = 4032 dimensions (Section 3.2).
        window = TimeWindow(num_days=28)
        vectorized = TrafficVectorizer().from_matrix(
            aggregate_one(batch_of([make_record(0.0, 100.0, 5.0, tower=0)]), window)
        )
        assert vectorized.num_slots == 4032
