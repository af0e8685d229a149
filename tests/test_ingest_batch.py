"""Tests for the columnar record-batch data plane (repro.ingest.batch) and
the chunked batch readers/writers in repro.ingest.loader."""

import numpy as np
import pytest

from repro.ingest.batch import (
    NETWORK_CODES,
    RecordBatch,
    batch_from_record_iter,
    decode_networks,
    encode_networks,
)
from repro.ingest.loader import (
    TraceFormatError,
    iter_record_batches_csv,
    iter_record_batches_jsonl,
    read_record_batch_csv,
    read_record_batch_jsonl,
    read_records_csv,
    read_records_jsonl,
    write_records_csv,
    write_records_jsonl,
)
from repro.ingest.records import TrafficRecord


def make_records(n=20, seed=0):
    rng = np.random.default_rng(seed)
    records = []
    for _ in range(n):
        start = float(rng.uniform(0, 5000))
        records.append(
            TrafficRecord(
                user_id=int(rng.integers(0, 10)),
                tower_id=int(rng.integers(0, 5)),
                start_s=start,
                end_s=start + float(rng.exponential(300)),
                bytes_used=float(rng.lognormal(8, 1)),
                network="LTE" if rng.random() < 0.7 else "3G",
            )
        )
    return records


class TestNetworkCodes:
    @pytest.mark.parametrize("dtype", ["U3", "S4"])
    def test_encode_decode_roundtrip(self, dtype):
        labels = np.array(["LTE", "3G", "LTE"], dtype=dtype)
        codes = encode_networks(labels)
        assert codes.dtype == np.uint8
        assert list(decode_networks(codes)) == ["LTE", "3G", "LTE"]

    def test_encode_accepts_integer_codes(self):
        codes = encode_networks(np.array([0, 1], dtype=np.uint8))
        assert codes.tolist() == [0, 1]

    @pytest.mark.parametrize("dtype", ["U3", "S4"])
    def test_encode_rejects_unknown_label(self, dtype):
        with pytest.raises(ValueError, match="5G"):
            encode_networks(np.array(["LTE", "5G"], dtype=dtype))

    def test_encode_rejects_out_of_range_integer_codes(self):
        # 256 would silently wrap to 0 ("3G") through a bare uint8 cast
        with pytest.raises(ValueError, match="record 1"):
            encode_networks(np.array([1, 256], dtype=np.int64))
        with pytest.raises(ValueError, match="record 0"):
            encode_networks(np.array([-1], dtype=np.int64))


class TestRecordBatch:
    def test_roundtrip_preserves_records(self):
        records = make_records(50)
        batch = RecordBatch.from_records(records)
        assert len(batch) == 50
        assert batch.num_records == 50
        assert batch.to_records() == records

    def test_column_dtypes(self):
        batch = RecordBatch.from_records(make_records(5))
        assert batch.user_id.dtype == np.int64
        assert batch.tower_id.dtype == np.int64
        assert batch.start_s.dtype == np.float64
        assert batch.end_s.dtype == np.float64
        assert batch.bytes_used.dtype == np.float64
        assert batch.network.dtype == np.uint8

    def test_accepts_string_network_column(self):
        batch = RecordBatch(
            user_id=[1],
            tower_id=[2],
            start_s=[0.0],
            end_s=[10.0],
            bytes_used=[100.0],
            network=np.array(["3G"]),
        )
        assert batch.network.tolist() == [NETWORK_CODES["3G"]]
        assert batch.network_labels().tolist() == ["3G"]

    def test_empty(self):
        batch = RecordBatch.empty()
        assert len(batch) == 0
        assert batch.to_records() == []
        assert batch.total_bytes == 0.0

    def test_validation_mirrors_record_invariants(self):
        with pytest.raises(ValueError, match="start_s must be non-negative"):
            RecordBatch(
                user_id=[1], tower_id=[1], start_s=[-1.0], end_s=[1.0],
                bytes_used=[1.0], network=["LTE"],
            )
        with pytest.raises(ValueError, match="must not precede"):
            RecordBatch(
                user_id=[1], tower_id=[1], start_s=[5.0], end_s=[1.0],
                bytes_used=[1.0], network=["LTE"],
            )
        with pytest.raises(ValueError, match="bytes_used must be non-negative"):
            RecordBatch(
                user_id=[1], tower_id=[1], start_s=[0.0], end_s=[1.0],
                bytes_used=[-1.0], network=["LTE"],
            )

    def test_validation_reports_offending_index(self):
        with pytest.raises(ValueError, match="record 2"):
            RecordBatch(
                user_id=[1, 2, 3], tower_id=[1, 2, 3],
                start_s=[0.0, 0.0, 5.0], end_s=[1.0, 1.0, 1.0],
                bytes_used=[1.0, 1.0, 1.0], network=["LTE", "3G", "LTE"],
            )

    def test_mismatched_column_lengths(self):
        with pytest.raises(ValueError, match="tower_id"):
            RecordBatch(
                user_id=[1, 2], tower_id=[1], start_s=[0.0, 0.0],
                end_s=[1.0, 1.0], bytes_used=[1.0, 1.0], network=["LTE", "LTE"],
            )

    def test_duration_and_total_bytes(self):
        batch = RecordBatch(
            user_id=[1, 2], tower_id=[1, 1], start_s=[0.0, 10.0],
            end_s=[5.0, 10.0], bytes_used=[100.0, 50.0], network=["LTE", "3G"],
        )
        assert batch.duration_s.tolist() == [5.0, 0.0]
        assert batch.total_bytes == 150.0

    def test_concat_and_take_and_filter(self):
        records = make_records(30)
        batch = RecordBatch.from_records(records)
        left, right = batch.take(np.arange(10)), batch.take(np.arange(10, 30))
        rejoined = RecordBatch.concat([left, right])
        assert rejoined.to_records() == records
        assert RecordBatch.concat([]).num_records == 0

        lte = batch.filter(batch.network == NETWORK_CODES["LTE"])
        assert all(record.network == "LTE" for record in lte.to_records())

    def test_take_delegates_boolean_masks_to_filter(self):
        batch = RecordBatch.from_records(make_records(6))
        mask = batch.network == NETWORK_CODES["LTE"]
        assert batch.take(mask).to_records() == batch.filter(mask).to_records()

    def test_filter_rejects_bad_mask_shape(self):
        batch = RecordBatch.from_records(make_records(4))
        with pytest.raises(ValueError, match="mask"):
            batch.filter(np.ones(3, dtype=bool))

    def test_iter_chunks_covers_batch_in_order(self):
        records = make_records(25)
        batch = RecordBatch.from_records(records)
        chunks = list(batch.iter_chunks(10))
        assert [len(chunk) for chunk in chunks] == [10, 10, 5]
        assert RecordBatch.concat(chunks).to_records() == records
        with pytest.raises(ValueError, match="chunk_size"):
            list(batch.iter_chunks(0))

    def test_sort_by_start(self):
        batch = RecordBatch.from_records(make_records(20)).sort_by_start()
        assert np.all(np.diff(batch.start_s) >= 0)

    def test_with_bytes_replaces_column(self):
        batch = RecordBatch.from_records(make_records(3))
        replaced = batch.with_bytes(np.array([1.0, 2.0, 3.0]))
        assert replaced.bytes_used.tolist() == [1.0, 2.0, 3.0]
        assert replaced.user_id.tolist() == batch.user_id.tolist()

    def test_batch_from_record_iter_chunks(self):
        records = make_records(23)
        batches = list(batch_from_record_iter(iter(records), 10))
        assert [len(batch) for batch in batches] == [10, 10, 3]
        assert RecordBatch.concat(batches).to_records() == records


class TestBatchReadersCsv:
    def test_roundtrip_via_batch_writer_and_reader(self, tmp_path):
        records = make_records(40)
        batch = RecordBatch.from_records(records)
        path = tmp_path / "trace.csv"
        assert write_records_csv(batch, path) == 40
        # batch writer output is readable by the scalar reader and vice versa
        assert list(read_records_csv(path)) == records
        assert read_record_batch_csv(path).to_records() == records

    def test_chunked_read_equals_whole_read(self, tmp_path):
        records = make_records(33)
        path = tmp_path / "trace.csv"
        write_records_csv(records, path)
        chunks = list(iter_record_batches_csv(path, chunk_size=10))
        assert [len(chunk) for chunk in chunks] == [10, 10, 10, 3]
        assert RecordBatch.concat(chunks).to_records() == records

    def test_rejects_bad_chunk_size(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_records_csv([], path)
        with pytest.raises(ValueError, match="chunk_size"):
            list(iter_record_batches_csv(path, chunk_size=0))

    def test_error_names_path_and_line_for_bad_value(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_records_csv(make_records(5), path)
        lines = path.read_text().splitlines()
        lines[3] = lines[3].replace(lines[3].split(",")[4], "not-a-number")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceFormatError, match=rf"{path}:4"):
            list(iter_record_batches_csv(path))

    def test_error_names_path_and_line_for_invalid_record(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(
            "user_id,tower_id,start_s,end_s,bytes_used,network\n"
            "1,1,0.0,10.0,5.0,LTE\n"
            "1,1,20.0,10.0,5.0,LTE\n"
        )
        with pytest.raises(TraceFormatError, match=rf"{path}:3"):
            list(iter_record_batches_csv(path))

    def test_error_names_path_for_bad_header(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("wrong,header\n")
        with pytest.raises(TraceFormatError, match=str(path)):
            list(iter_record_batches_csv(path))

    def test_error_names_path_and_line_for_short_row(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(
            "user_id,tower_id,start_s,end_s,bytes_used,network\n1,2,3\n"
        )
        with pytest.raises(TraceFormatError, match=rf"{path}:2"):
            list(iter_record_batches_csv(path))


class TestBatchReadersJsonl:
    def test_roundtrip_via_batch_writer_and_reader(self, tmp_path):
        records = make_records(40, seed=1)
        batch = RecordBatch.from_records(records)
        path = tmp_path / "trace.jsonl"
        assert write_records_jsonl(batch, path) == 40
        assert list(read_records_jsonl(path)) == records
        assert read_record_batch_jsonl(path).to_records() == records

    def test_chunked_read_equals_whole_read(self, tmp_path):
        records = make_records(21, seed=2)
        path = tmp_path / "trace.jsonl"
        write_records_jsonl(records, path)
        chunks = list(iter_record_batches_jsonl(path, chunk_size=8))
        assert [len(chunk) for chunk in chunks] == [8, 8, 5]
        assert RecordBatch.concat(chunks).to_records() == records

    def test_blank_lines_are_skipped(self, tmp_path):
        records = make_records(3, seed=3)
        path = tmp_path / "trace.jsonl"
        write_records_jsonl(records, path)
        content = path.read_text().replace("\n", "\n\n", 1)
        path.write_text(content)
        assert read_record_batch_jsonl(path).to_records() == records

    def test_error_names_path_and_line_for_bad_json(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"user_id": 1, "tower_id": 1, "start_s": 0, "end_s": 1, "bytes_used": 2}\nnot json\n')
        with pytest.raises(TraceFormatError, match=rf"{path}:2"):
            list(iter_record_batches_jsonl(path))

    def test_error_names_path_and_line_for_invalid_record(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            '{"user_id": 1, "tower_id": 1, "start_s": 0, "end_s": 1, "bytes_used": 2}\n'
            '{"user_id": 1, "tower_id": 1, "start_s": 9, "end_s": 1, "bytes_used": 2}\n'
        )
        with pytest.raises(TraceFormatError, match=rf"{path}:2"):
            list(iter_record_batches_jsonl(path))

    def test_error_names_path_and_line_for_missing_field(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"user_id": 1}\n')
        with pytest.raises(TraceFormatError, match=rf"{path}:1"):
            list(iter_record_batches_jsonl(path))


class TestScalarReaderErrorsNamePath:
    """The record-at-a-time readers also name the file path, not just the line."""

    def test_csv_value_error_names_path(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(
            "user_id,tower_id,start_s,end_s,bytes_used,network\n"
            "1,1,0.0,10.0,oops,LTE\n"
        )
        with pytest.raises(TraceFormatError, match=rf"{path}:2"):
            list(read_records_csv(path))

    def test_jsonl_value_error_names_path(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"user_id": 1, "tower_id": 1, "start_s": -4, "end_s": 1, "bytes_used": 2}\n')
        with pytest.raises(TraceFormatError, match=rf"{path}:1"):
            list(read_records_jsonl(path))
