"""Tests for repro.ingest.dedup: hand-computed cases for clean_batch and clean_chunk."""

import numpy as np
import pytest

from oracles.records import TrafficRecord, batch_of
from repro.ingest.batch import RecordBatch
from repro.ingest.dedup import clean_batch, clean_chunk


def make_record(user=1, tower=2, start=0.0, end=60.0, volume=100.0, network="LTE"):
    return TrafficRecord(
        user_id=user, tower_id=tower, start_s=start, end_s=end, bytes_used=volume, network=network
    )


def clean(*records):
    return clean_batch(batch_of(records))


class TestDeduplicate:
    def test_removes_exact_duplicates(self):
        record = make_record()
        cleaned, report = clean(record, record, record)
        assert len(cleaned) == 1
        assert report.num_exact_duplicates_removed == 2
        assert report.num_conflict_groups == 0

    def test_keeps_distinct_records(self):
        a = make_record(start=0.0)
        b = make_record(start=120.0, end=180.0)
        cleaned, report = clean(a, b)
        assert len(cleaned) == 2
        assert report.num_exact_duplicates_removed == 0

    def test_preserves_first_seen_order(self):
        a = make_record(user=1)
        b = make_record(user=2)
        c = make_record(user=3, start=300.0, end=360.0)
        cleaned, _ = clean(c, b, a, b, c)
        assert cleaned.user_id.tolist() == [3, 2, 1]

    def test_different_bytes_not_exact_duplicates(self):
        a = make_record(volume=100.0)
        b = make_record(volume=200.0)
        _, report = clean(a, b)
        assert report.num_exact_duplicates_removed == 0
        assert report.num_conflict_groups == 1

    def test_empty_input(self):
        cleaned, report = clean_batch(RecordBatch.empty())
        assert len(cleaned) == 0
        assert report.num_input_records == 0 and report.num_output_records == 0


class TestResolveConflicts:
    def test_median_resolution(self):
        cleaned, report = clean(*(make_record(volume=v) for v in (100.0, 300.0, 200.0)))
        assert report.num_conflict_groups == 1
        assert report.num_conflict_records_removed == 2
        assert cleaned.bytes_used.tolist() == [200.0]

    def test_even_group_takes_mean_of_the_middle_pair(self):
        volumes = (400.0, 100.0, 300.0, 200.0)
        cleaned, report = clean(*(make_record(volume=v) for v in volumes))
        assert report.num_conflict_records_removed == 3
        assert cleaned.bytes_used.tolist() == [250.0]

    def test_resolved_record_is_the_first_seen_copy(self):
        first = make_record(volume=300.0, network="3G")
        cleaned, _ = clean(first, make_record(volume=100.0), make_record(volume=200.0))
        assert cleaned.network_labels().tolist() == ["3G"]
        assert cleaned.bytes_used.tolist() == [200.0]

    def test_non_conflicting_records_untouched(self):
        a = make_record(user=1)
        b = make_record(user=2)
        cleaned, report = clean(a, b)
        assert cleaned.user_id.tolist() == [1, 2]
        assert cleaned.bytes_used.tolist() == [100.0, 100.0]
        assert report.num_conflict_groups == 0 and report.num_conflict_records_removed == 0

    def test_identical_copies_counted_as_removed_not_conflicts(self):
        # Same connection and byte count on two technologies: not an exact
        # duplicate, and not a conflict either — the first copy stays.
        lte = make_record(network="LTE")
        umts = make_record(network="3G")
        cleaned, report = clean(lte, umts)
        assert len(cleaned) == 1
        assert cleaned.network_labels().tolist() == ["LTE"]
        assert report.num_exact_duplicates_removed == 0
        assert report.num_conflict_groups == 0
        assert report.num_conflict_records_removed == 1


class TestReport:
    def test_combined_report(self):
        base = make_record()
        conflict = base.with_bytes(999.0)
        other = make_record(user=7, start=600.0, end=660.0)
        cleaned, report = clean(base, base, conflict, other)
        assert report.num_input_records == 4
        assert report.num_exact_duplicates_removed == 1
        assert report.num_conflict_groups == 1
        assert report.num_conflict_records_removed == 1
        assert report.num_output_records == 2
        assert len(cleaned) == 2

    def test_duplicate_fraction(self):
        base = make_record()
        _, report = clean(base, base, base, base)
        assert report.duplicate_fraction == pytest.approx(0.75)

    def test_clean_recovers_total_volume_up_to_conflicts(self):
        rng = np.random.default_rng(0)
        originals = [
            make_record(user=i, start=float(i) * 100, end=float(i) * 100 + 50, volume=float(v))
            for i, v in enumerate(rng.integers(10, 1000, size=200))
        ]
        corrupted = originals + originals[:40]  # pure duplicates
        cleaned, report = clean(*corrupted)
        assert report.num_exact_duplicates_removed == 40
        assert cleaned.total_bytes == pytest.approx(sum(r.bytes_used for r in originals))


class TestCleanChunk:
    @pytest.mark.parametrize(
        "records",
        [
            (),
            (make_record(),),
            (make_record(), make_record(), make_record(user=2)),
            (make_record(), make_record(volume=300.0), make_record(volume=200.0)),
        ],
        ids=["empty", "single", "duplicates", "conflict"],
    )
    def test_is_clean_batch_without_its_report(self, records):
        batch = batch_of(records)
        expected, _ = clean_batch(batch)
        cleaned = clean_chunk(batch)
        for got, want in zip(cleaned.columns(), expected.columns()):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    def test_the_old_import_path_names_the_same_function(self):
        # The end-to-end benchmark still imports clean_chunk from
        # repro.vectorize.parallel, which only re-exports it.
        from repro.vectorize import parallel

        assert parallel.clean_chunk is clean_chunk
        assert parallel.__all__ == ["clean_chunk"]
