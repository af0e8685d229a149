"""Property-style equivalence tests: columnar data plane vs scalar oracles.

The columnar RecordBatch paths (dedup, conflict resolution, slot-split
aggregation) must produce identical outputs to the record-at-a-time oracles
in ``tests/oracles/``, including on the awkward inputs: zero-duration
records, records straddling the observation-window edge, and records
truncated away entirely.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.aggregate import aggregate_records, slot_span_of_record, split_bytes_over_slots
from oracles.dedup import clean_records, deduplicate_records, records_of, resolve_conflicts
from repro.core.config import ModelConfig
from repro.core.model import TrafficPatternModel
from repro.ingest.batch import RecordBatch
from repro.ingest.dedup import clean_batch
from repro.ingest.density import compute_density_map
from repro.ingest.preprocess import preprocess_trace
from repro.ingest.records import BaseStationInfo, TrafficRecord
from repro.synth.noise import LogCorruptionConfig, corrupt_batch
from repro.synth.scenario import ScenarioConfig, generate_scenario
from repro.utils.timeutils import SLOT_SECONDS, TimeWindow
from repro.vectorize.aggregate import aggregate_batches
from repro.vectorize.slots import slot_spans_of_intervals, split_bytes_over_slots_batch
from repro.vectorize.vectorizer import TrafficVectorizer

WINDOW = TimeWindow(num_days=2)


def aggregate_one(batch, window, tower_ids=None):
    """Aggregate one batch; rows default to its sorted tower ids."""
    if tower_ids is None:
        tower_ids = np.unique(batch.tower_id)
    return aggregate_batches([batch], window, tower_ids)


def random_records(seed, n=400, num_towers=8, include_edge_cases=True):
    """Random records stressing every slot-split branch."""
    rng = np.random.default_rng(seed)
    records = []
    for _ in range(n):
        kind = rng.random()
        if kind < 0.15:
            duration = 0.0  # zero-duration (instantaneous) record
        elif kind < 0.3:
            duration = float(rng.exponential(4 * SLOT_SECONDS))  # multi-slot
        else:
            duration = float(rng.exponential(0.4 * SLOT_SECONDS))
        start = float(rng.uniform(0, WINDOW.num_seconds * 1.05))
        records.append(
            TrafficRecord(
                user_id=int(rng.integers(0, 30)),
                tower_id=int(rng.integers(0, num_towers)),
                start_s=start,
                end_s=start + duration,
                bytes_used=float(rng.lognormal(9, 1)),
                network="LTE" if rng.random() < 0.7 else "3G",
            )
        )
    if include_edge_cases:
        edge = WINDOW.num_seconds
        records += [
            # straddles the window edge: part of the volume is truncated
            TrafficRecord(1, 0, edge - 150.0, edge + 450.0, 1e6),
            # ends exactly on the window edge
            TrafficRecord(1, 1, edge - SLOT_SECONDS, float(edge), 2e6),
            # starts exactly on the window edge: fully truncated
            TrafficRecord(2, 0, float(edge), edge + 100.0, 3e6),
            # entirely out of window
            TrafficRecord(2, 1, edge + 10.0, edge + 20.0, 4e6),
            # zero-duration on a slot boundary
            TrafficRecord(3, 2, float(SLOT_SECONDS), float(SLOT_SECONDS), 5e6),
            # spans an exact slot boundary interval
            TrafficRecord(3, 3, float(SLOT_SECONDS), 2.0 * SLOT_SECONDS, 6e6),
        ]
    return records


def with_duplicates_and_conflicts(records, seed, *, conflicts=True):
    rng = np.random.default_rng(seed)
    out = list(records)
    n = len(records)
    for index in rng.integers(0, n, size=n // 5):
        out.append(records[int(index)])  # exact duplicates
    for index in rng.integers(0, n, size=n // 8 if conflicts else 0):
        record = records[int(index)]
        out.append(record.with_bytes(record.bytes_used * float(rng.uniform(0.5, 1.5))))
    order = rng.permutation(len(out))
    return [out[i] for i in order]


class TestSlotSplitEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_spans_match_scalar(self, seed):
        records = random_records(seed, n=200)
        starts = np.array([r.start_s for r in records])
        ends = np.array([r.end_s for r in records])
        first, last = slot_spans_of_intervals(starts, ends)
        for i, record in enumerate(records):
            assert (int(first[i]), int(last[i])) == slot_span_of_record(record)

    @pytest.mark.parametrize("seed", [3, 4])
    def test_contributions_match_scalar(self, seed):
        records = random_records(seed, n=200)
        num_slots = WINDOW.num_slots
        starts = np.array([r.start_s for r in records])
        ends = np.array([r.end_s for r in records])
        volumes = np.array([r.bytes_used for r in records])
        record_index, slots, contribs = split_bytes_over_slots_batch(
            starts, ends, volumes, num_slots
        )
        got = list(zip(record_index.tolist(), slots.tolist(), contribs.tolist()))
        expected = [
            (i, slot, volume)
            for i, record in enumerate(records)
            for slot, volume in split_bytes_over_slots(record, num_slots)
        ]
        assert got == expected  # same contributions in the same order


class TestRawArraySlotSplit:
    def test_negative_start_contributions_are_dropped_like_scalar(self):
        # the public function takes raw arrays with no validation; slots
        # before the window must be truncated exactly like the scalar path
        record_index, slots, volumes = split_bytes_over_slots_batch(
            np.array([-300.0]), np.array([300.0]), np.array([1000.0]), 144
        )
        assert np.all(slots >= 0)
        assert volumes.sum() == pytest.approx(500.0)


class TestDedupEquivalence:
    @pytest.mark.parametrize("seed", [10, 11, 12])
    def test_deduplicate_matches_scalar(self, seed):
        records = with_duplicates_and_conflicts(
            random_records(seed, n=300), seed, conflicts=False
        )
        scalar_kept, scalar_removed = deduplicate_records(records)
        batch_kept, report = clean_batch(RecordBatch.from_records(records))
        assert report.num_exact_duplicates_removed == scalar_removed
        assert report.num_conflict_groups == 0
        assert records_of(batch_kept) == scalar_kept

    @pytest.mark.parametrize("seed", [20, 22])
    def test_resolve_conflicts_matches_scalar(self, seed):
        records = with_duplicates_and_conflicts(random_records(seed, n=300), seed + 1)
        deduplicated, _ = deduplicate_records(records)
        scalar_out, scalar_groups, scalar_removed = resolve_conflicts(deduplicated)
        batch_out, report = clean_batch(RecordBatch.from_records(deduplicated))
        assert report.num_exact_duplicates_removed == 0
        assert (report.num_conflict_groups, report.num_conflict_records_removed) == (
            scalar_groups,
            scalar_removed,
        )
        assert records_of(batch_out) == scalar_out

    @pytest.mark.parametrize("seed", [30, 31])
    def test_clean_matches_scalar_including_report(self, seed):
        records = with_duplicates_and_conflicts(random_records(seed, n=250), seed)
        batch = RecordBatch.from_records(records)
        scalar_clean, scalar_report = clean_records(records)
        batch_clean, batch_report = clean_batch(batch)
        assert batch_report == scalar_report
        assert records_of(batch_clean) == scalar_clean

    def test_identical_bytes_different_network_not_a_conflict(self):
        records = [
            TrafficRecord(1, 1, 0.0, 100.0, 500.0, "LTE"),
            TrafficRecord(1, 1, 0.0, 100.0, 500.0, "3G"),
        ]
        scalar_out, scalar_report = clean_records(records)
        batch_out, batch_report = clean_batch(RecordBatch.from_records(records))
        assert batch_report == scalar_report
        assert batch_report.num_conflict_groups == 0
        assert records_of(batch_out) == scalar_out


class TestCorruptedTraceEndToEnd:
    def test_clean_then_aggregate_matches_the_scalar_oracle_exactly(self):
        # A corrupted trace with multi-slot and zero-duration records, cleaned
        # and aggregated by both planes: same report, same matrix bit for
        # bit, so the total volume agrees exactly too.
        rng = np.random.default_rng(2015)
        n = 6_000
        window = TimeWindow(num_days=7)
        starts = rng.uniform(0, window.num_seconds, size=n)
        durations = rng.exponential(0.6 * SLOT_SECONDS, size=n)
        durations[rng.random(n) < 0.1] *= 8.0
        durations[rng.random(n) < 0.05] = 0.0
        clean = RecordBatch(
            user_id=rng.integers(0, 500, size=n),
            tower_id=rng.integers(0, 40, size=n),
            start_s=starts,
            end_s=np.minimum(starts + durations, float(window.num_seconds)),
            bytes_used=rng.lognormal(9.0, 1.0, size=n),
            network=np.where(rng.random(n) < 0.7, 1, 0).astype(np.uint8),
        )
        trace, corruption = corrupt_batch(clean, LogCorruptionConfig(), rng=rng)
        assert corruption.num_duplicates_added > 0 and corruption.num_conflicts_added > 0

        scalar_clean, scalar_report = clean_records(records_of(trace))
        scalar = aggregate_records(scalar_clean, window)
        cleaned, report = clean_batch(trace)
        columnar = aggregate_one(cleaned, window)
        assert report == scalar_report
        assert np.array_equal(columnar.tower_ids, scalar.tower_ids)
        assert np.array_equal(columnar.traffic, scalar.traffic)
        assert columnar.traffic.sum() == scalar.traffic.sum()


class TestAggregateEquivalence:
    @pytest.mark.parametrize("seed", [40, 41, 42])
    def test_matrix_matches_scalar_bit_for_bit(self, seed):
        records = random_records(seed)
        batch = RecordBatch.from_records(records)
        scalar = aggregate_records(records, WINDOW)
        columnar = aggregate_one(batch, WINDOW)
        assert np.array_equal(scalar.tower_ids, columnar.tower_ids)
        assert np.array_equal(scalar.traffic, columnar.traffic)

    def test_explicit_tower_ids_with_unknown_and_missing(self):
        records = random_records(50, num_towers=6)
        batch = RecordBatch.from_records(records)
        tower_ids = [4, 2, 99, 0]  # 99 has no records; towers 1,3,5 are dropped
        scalar = aggregate_records(records, WINDOW, tower_ids=tower_ids)
        columnar = aggregate_one(batch, WINDOW, tower_ids)
        assert np.array_equal(scalar.tower_ids, columnar.tower_ids)
        assert np.array_equal(scalar.traffic, columnar.traffic)
        assert np.all(columnar.traffic[2] == 0.0)

    def test_volume_is_conserved_exactly_for_in_window_records(self):
        rng = np.random.default_rng(60)
        records = []
        for _ in range(500):
            start = float(rng.uniform(0, WINDOW.num_seconds - 5 * SLOT_SECONDS))
            records.append(
                TrafficRecord(
                    user_id=1,
                    tower_id=int(rng.integers(0, 4)),
                    start_s=start,
                    end_s=start + float(rng.exponential(2 * SLOT_SECONDS)),
                    bytes_used=float(rng.lognormal(9, 1)),
                )
            )
        records = [r for r in records if r.end_s <= WINDOW.num_seconds]
        batch = RecordBatch.from_records(records)
        matrix = aggregate_one(batch, WINDOW)
        total = sum(r.bytes_used for r in records)
        assert matrix.traffic.sum() == pytest.approx(total, rel=1e-12)

    def test_streaming_chunks_match_whole_batch(self):
        records = random_records(70)
        batch = RecordBatch.from_records(records)
        tower_ids = sorted({r.tower_id for r in records})
        whole = aggregate_one(batch, WINDOW, tower_ids)
        chunked = aggregate_batches(batch.iter_chunks(37), WINDOW, tower_ids)
        assert np.array_equal(whole.traffic, chunked.traffic)

    def test_duplicate_explicit_tower_ids_raise(self):
        records = random_records(80, n=20)
        batch = RecordBatch.from_records(records)
        with pytest.raises(ValueError, match=r"duplicate .*\[2, 7\]"):
            aggregate_batches([batch], WINDOW, [2, 7, 2, 7, 1])
        with pytest.raises(ValueError, match=r"duplicate .*\[3\]"):
            aggregate_batches([batch], WINDOW, [3, 3])

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 3),  # tower
                st.floats(0.0, 2.1 * SLOT_SECONDS, allow_nan=False),  # start
                st.floats(0.0, 3.0 * SLOT_SECONDS, allow_nan=False),  # duration
                st.floats(1.0, 1e6, allow_nan=False),  # bytes
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_property_small_window_equivalence(self, rows):
        window = TimeWindow(num_days=1)
        records = [
            TrafficRecord(0, tower, start, start + duration, volume)
            for tower, start, duration, volume in rows
        ]
        batch = RecordBatch.from_records(records)
        scalar = aggregate_records(records, window)
        columnar = aggregate_one(batch, window)
        assert np.array_equal(scalar.traffic, columnar.traffic)


class TestVectorizerAndPreprocessEquivalence:
    def test_vectorizer_matches_scalar_aggregate(self):
        records = random_records(90)
        batch = RecordBatch.from_records(records)
        vectorizer = TrafficVectorizer()
        via_records = vectorizer.from_matrix(aggregate_records(records, WINDOW))
        via_batch = vectorizer.from_matrix(aggregate_one(batch, WINDOW))
        assert np.array_equal(via_records.vectors, via_batch.vectors)
        assert np.array_equal(via_records.raw.traffic, via_batch.raw.traffic)

    def test_preprocess_trace_cleans_like_the_scalar_oracle(self):
        records = with_duplicates_and_conflicts(random_records(91, n=200), 91)
        stations = [
            BaseStationInfo(tower_id=t, address=f"addr {t}", lat=31.0 + t * 0.01, lon=121.0)
            for t in sorted({r.tower_id for r in records})
        ]
        scalar_clean, scalar_report = clean_records(records)
        result = preprocess_trace(RecordBatch.from_records(records), stations, None)
        assert result.report.dedup == scalar_report
        assert records_of(result.records) == scalar_clean
        volumes = dict.fromkeys((station.tower_id for station in stations), 0.0)
        for record in scalar_clean:
            volumes[record.tower_id] += record.bytes_used
        expected = compute_density_map(
            np.array([station.lat for station in stations]),
            np.array([station.lon for station in stations]),
            np.array([volumes[station.tower_id] for station in stations]),
            num_rows=40,
            num_cols=40,
        )
        assert np.allclose(result.density.density, expected.density)

    def test_model_fit_batches_matches_fit_on_aggregate(self):
        records = random_records(92, n=600, num_towers=12, include_edge_cases=False)
        batch = RecordBatch.from_records(records)
        tower_ids = np.unique(batch.tower_id)
        config = ModelConfig(num_clusters=3)
        direct = TrafficPatternModel(config).fit(aggregate_one(batch, WINDOW))
        via_batch = TrafficPatternModel(config).fit_batches([batch], WINDOW, tower_ids)
        assert np.array_equal(direct.labels, via_batch.labels)
        assert np.array_equal(
            direct.vectorized.raw.traffic, via_batch.vectorized.raw.traffic
        )

    def test_model_fit_batches_streams_chunks(self):
        records = random_records(93, n=600, num_towers=12, include_edge_cases=False)
        batch = RecordBatch.from_records(records)
        tower_ids = sorted(set(batch.tower_id.tolist()))
        config = ModelConfig(num_clusters=3)
        whole = TrafficPatternModel(config).fit_batches([batch], WINDOW, tower_ids)
        chunked = TrafficPatternModel(config).fit_batches(
            batch.iter_chunks(100), WINDOW, tower_ids
        )
        assert np.allclose(
            whole.vectorized.raw.traffic, chunked.vectorized.raw.traffic
        )
        assert np.array_equal(whole.labels, chunked.labels)


class TestSynthBatchPath:
    def test_corrupt_batch_adds_duplicates_and_conflicts(self):
        records = random_records(94, n=300, include_edge_cases=False)
        batch = RecordBatch.from_records(records)
        corrupted, report = corrupt_batch(
            batch,
            LogCorruptionConfig(duplicate_fraction=0.2, conflict_fraction=0.1),
            rng=5,
        )
        assert report.num_input_records == len(batch)
        assert len(corrupted) == report.num_output_records
        assert report.num_duplicates_added > 0
        assert report.num_conflicts_added > 0
        cleaned, dedup_report = clean_batch(corrupted)
        assert dedup_report.num_exact_duplicates_removed >= report.num_duplicates_added
        # conflict resolution recovers the original per-tower volume closely
        assert cleaned.total_bytes == pytest.approx(batch.total_bytes, rel=0.05)

    def test_scenario_emits_batch_directly(self):
        scenario = generate_scenario(
            ScenarioConfig(
                num_towers=12,
                num_users=60,
                num_days=2,
                seed=4,
                generate_sessions=True,
                sessions_as_batch=True,
            )
        )
        batch = scenario.record_batch
        assert batch is not None
        assert scenario.session_batch() is batch
        assert scenario.records == []
        assert len(batch) == scenario.corruption_report.num_output_records
        assert np.all(np.diff(batch.start_s[: len(batch) // 2]) >= -1e9)  # sanity
        assert set(batch.tower_id.tolist()) <= {
            tower.tower_id for tower in scenario.city.towers
        }
        # aggregating the cleaned sessions lands near the profile traffic scale
        cleaned, _ = clean_batch(batch)
        matrix = aggregate_batches(
            [cleaned], scenario.window, scenario.traffic.tower_ids.tolist()
        )
        assert matrix.traffic.sum() > 0
