"""Tests for repro.ingest.loader (CSV round trips and error handling)."""

import numpy as np
import pytest

from oracles.records import TrafficRecord, batch_of
from repro.ingest.batch import RecordBatch
from repro.ingest.loader import (
    TraceFormatError,
    iter_record_batches_csv,
    read_record_batch_csv,
    read_stations_csv,
    write_records_csv,
    write_stations_csv,
)
from repro.ingest.records import BaseStationInfo


@pytest.fixture
def sample_records():
    return batch_of(
        [
            TrafficRecord(user_id=1, tower_id=10, start_s=0.0, end_s=30.5, bytes_used=1234.5),
            TrafficRecord(
                user_id=2, tower_id=11, start_s=100.0, end_s=160.0, bytes_used=99.0, network="3G"
            ),
            TrafficRecord(user_id=3, tower_id=10, start_s=200.25, end_s=200.25, bytes_used=0.0),
        ]
    )


@pytest.fixture
def sample_stations():
    return [
        BaseStationInfo(tower_id=10, address="Office District 1, Block 3, Tower Site 10"),
        BaseStationInfo(tower_id=11, address="Resident District 2, Block 4, Tower Site 11", lat=31.2, lon=121.5),
    ]


class TestRecordsCsv:
    def test_round_trip(self, tmp_path, sample_records):
        path = tmp_path / "trace.csv"
        written = write_records_csv(sample_records, path)
        assert written == 3
        loaded = read_record_batch_csv(path)
        for column, expected in zip(loaded.columns(), sample_records.columns()):
            assert column.tolist() == expected.tolist()

    def test_float_precision_preserved(self, tmp_path, sample_records):
        path = tmp_path / "trace.csv"
        write_records_csv(sample_records, path)
        loaded = read_record_batch_csv(path)
        assert loaded.bytes_used[0] == 1234.5
        assert loaded.start_s[2] == 200.25

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("foo,bar\n1,2\n")
        with pytest.raises(TraceFormatError):
            read_record_batch_csv(path)

    def test_bad_row_rejected(self, tmp_path, sample_records):
        path = tmp_path / "trace.csv"
        write_records_csv(sample_records, path)
        with path.open("a") as handle:
            handle.write("1,2,3\n")
        with pytest.raises(TraceFormatError):
            read_record_batch_csv(path)

    def test_non_numeric_field_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "user_id,tower_id,start_s,end_s,bytes_used,network\nx,1,0,1,10,LTE\n"
        )
        with pytest.raises(TraceFormatError):
            read_record_batch_csv(path)

    @pytest.mark.parametrize("field", [2, 3, 4])
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e400"])
    def test_non_finite_value_names_the_line(self, tmp_path, sample_records, field, value):
        path = tmp_path / "trace.csv"
        write_records_csv(sample_records, path)
        lines = path.read_text().splitlines()
        row = lines[2].split(",")
        row[field] = value
        lines[2] = ",".join(row)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceFormatError, match=r"trace\.csv:3: "):
            read_record_batch_csv(path)

    @pytest.mark.parametrize("chunk_size", [1, 7, 100_000])
    @pytest.mark.parametrize("line", [2, 1500, 3001])
    def test_undecodable_byte_names_the_line(self, tmp_path, chunk_size, line):
        # The text reader decodes ahead of the line it hands out; the error
        # must still name the line holding the byte, after earlier batches.
        n = 3000
        records = RecordBatch(
            user_id=np.arange(n),
            tower_id=np.full(n, 10),
            start_s=np.arange(n, dtype=float),
            end_s=np.arange(n, dtype=float) + 1.0,
            bytes_used=np.full(n, 100.0),
            network=np.zeros(n, dtype=np.uint8),
        )
        path = tmp_path / "trace.csv"
        write_records_csv(records, path)
        lines = path.read_bytes().split(b"\n")
        lines[line - 1] = lines[line - 1].rsplit(b",", 1)[0] + b",LT\xffE"
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(TraceFormatError) as caught:
            list(iter_record_batches_csv(path, chunk_size=chunk_size))
        assert str(caught.value) == f"{path}:{line}: byte 0xff is not valid UTF-8"


class TestStationsCsv:
    def test_round_trip(self, tmp_path, sample_stations):
        path = tmp_path / "stations.csv"
        written = write_stations_csv(sample_stations, path)
        assert written == 2
        loaded = read_stations_csv(path)
        assert loaded == sample_stations

    def test_missing_coordinates_round_trip_as_none(self, tmp_path, sample_stations):
        path = tmp_path / "stations.csv"
        write_stations_csv(sample_stations, path)
        loaded = read_stations_csv(path)
        assert loaded[0].lat is None and loaded[0].lon is None
        assert loaded[1].lat == 31.2

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c,d\n")
        with pytest.raises(TraceFormatError):
            read_stations_csv(path)

    def test_repeated_tower_names_both_lines(self, tmp_path, sample_stations):
        path = tmp_path / "stations.csv"
        write_stations_csv([*sample_stations, sample_stations[0]], path)
        with pytest.raises(TraceFormatError, match=r"stations\.csv:4: tower 10 .*line 2"):
            read_stations_csv(path)

    def test_header_only_directory_names_the_path(self, tmp_path):
        path = tmp_path / "stations.csv"
        write_stations_csv([], path)
        with pytest.raises(TraceFormatError, match=r"stations\.csv: no stations"):
            read_stations_csv(path)

    def test_undecodable_byte_names_the_line(self, tmp_path, sample_stations):
        path = tmp_path / "stations.csv"
        write_stations_csv(sample_stations, path)
        path.write_bytes(path.read_bytes().replace(b"Block 4", b"Stra\xdfe 4"))
        with pytest.raises(TraceFormatError) as caught:
            read_stations_csv(path)
        assert str(caught.value) == f"{path}:3: byte 0xdf is not valid UTF-8"
