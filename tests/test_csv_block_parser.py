"""The CSV block parser in repro.ingest.loader against its row loop.

:func:`iter_record_batches_csv` parses blocks of lines with one
``np.loadtxt`` call each and hands the rest of the file to the ``csv`` row
loop from the first block it cannot parse exactly.  These tests pin both
halves of that contract:

* on any input — clean, or perturbed in the ways a hand-edited or foreign
  trace can be — the batches (chunk boundaries and bits) and the error they
  stop with, if any, equal those of the row loop over the whole file;
* files written by :func:`write_records_csv` never reach the row loop, so
  the speed of the block parser cannot be lost silently.
"""

from __future__ import annotations

import csv
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.ingest import loader
from repro.ingest.batch import NETWORK_NAMES, RecordBatch
from repro.ingest.loader import (
    TraceFormatError,
    iter_record_batches_csv,
    read_record_batch_csv,
    write_records_csv,
)

COLUMNS = ("user_id", "tower_id", "start_s", "end_s", "bytes_used", "network")
INT64_MAX = 2**63 - 1
#: Chunk sizes of one record, a few records, and the whole file.
CHUNK_SIZES = (1, 7, 1_000_000)

IDS = st.integers(min_value=-(2**63), max_value=INT64_MAX)
#: The largest finite double.
MAX_DOUBLE = float(np.finfo(np.float64).max)
#: Non-negative finite doubles: zero, subnormals and huge values included.
NON_NEGATIVE = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
RECORDS = st.lists(
    st.tuples(
        IDS, IDS, NON_NEGATIVE, NON_NEGATIVE, NON_NEGATIVE, st.sampled_from(NETWORK_NAMES)
    ),
    max_size=30,
)
#: Records at the edges of every column type.
EXTREMES = [
    (INT64_MAX, -(2**63), 0.0, 5e-324, 1.7976931348623157e308, "LTE"),
    (0, INT64_MAX, 2.2250738585072014e-308, 1e300, MAX_DOUBLE, "3G"),
    (-1, 1, 0.1, 0.1, 1e-310, "LTE"),
    (12345678901234, 42, MAX_DOUBLE, 0.0, 123.456, "3G"),
]


def make_batch(rows) -> RecordBatch:
    """A batch from ``(user, tower, start, duration, bytes, network)`` tuples.

    An end past the largest finite double (a huge start plus a huge
    duration) is clamped to it.
    """
    users, towers, starts, durations, volumes, networks = zip(*rows) if rows else [[]] * 6
    starts = np.asarray(starts, dtype=np.float64)
    with np.errstate(over="ignore"):
        ends = np.minimum(starts + np.asarray(durations, dtype=np.float64), MAX_DOUBLE)
    return RecordBatch(
        user_id=np.asarray(users, dtype=np.int64),
        tower_id=np.asarray(towers, dtype=np.int64),
        start_s=starts,
        end_s=ends,
        bytes_used=np.asarray(volumes, dtype=np.float64),
        network=np.asarray(networks, dtype=str),
    )


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    """One file that every generated example overwrites."""
    return tmp_path_factory.mktemp("block-parser") / "trace.csv"


def row_path(path, chunk_size):
    """The row loop over the whole file, after the header."""
    with path.open("r", newline="") as handle:
        next(csv.reader(handle))
        yield from loader._iter_csv_rows(path, handle, 2, chunk_size)


def outcome(batches):
    """The batches an iterator yields and the error it fails with, if any."""
    collected = []
    try:
        for batch in batches:
            collected.append(batch)
    except (TraceFormatError, csv.Error) as error:
        return collected, (type(error), str(error))
    return collected, None


def assert_same_batches(actual, expected):
    assert [len(batch) for batch in actual] == [len(batch) for batch in expected]
    for got, want in zip(actual, expected):
        for name in COLUMNS:
            column, reference = getattr(got, name), getattr(want, name)
            assert column.dtype == reference.dtype, name
            assert column.tobytes() == reference.tobytes(), name


# ----------------------------------------------------------------------
# Perturbations of a written trace
# ----------------------------------------------------------------------

#: Texts that replace one field of one record.
BAD_LABELS = ["LTEX", "LTE#x", "lte", "4G", "", "LTE\x00", "3G\x00\x00x", "LT\xc9"]
INT64_OVERFLOWS = [str(2**63), str(-(2**63) - 1)]
#: Texts every float parser reads as an infinity, which validation rejects.
INFINITIES = ["inf", "-inf", "Infinity", "1e999"]
#: Floats in an id field, which numpy 1.23–1.26's ``loadtxt`` casts to ints.
FLOAT_IDS = ["1.5", "1e3", "7.0"]
#: Characters the two parsers could disagree about next to a number: C0
#: separators that ``str.isspace`` accepts, a NUL, a vertical tab, a
#: non-breaking space, a non-ASCII digit, and a letter numpy's ``loadtxt``
#: (2.4) reads as a digit in an integer field.
ODD_CHARS = ["\x00", "\x1c", "\x1f", "\x0b", "\xa0", "\u0661", "\u01fe"]


def _perturb_field(data, fields):
    """Change one field of ``fields`` (a record's texts) in place."""
    kind = data.draw(
        st.sampled_from(
            [
                "quote", "underscore", "spaces", "label", "nan", "infinite",
                "negative_start", "end_before_start", "overflow", "float_id", "odd_char",
            ]
        )
    )
    column = data.draw(st.integers(0, 5))
    if kind == "quote":
        fields[column] = f'"{fields[column]}"'
    elif kind == "underscore":
        fields[data.draw(st.integers(0, 4))] = "1_000"
    elif kind == "spaces":
        fields[column] = data.draw(st.sampled_from([" {}", "{} ", " {} "])).format(
            fields[column]
        )
    elif kind == "label":
        fields[5] = data.draw(st.sampled_from(BAD_LABELS))
    elif kind == "nan":
        fields[data.draw(st.integers(2, 4))] = "nan"
    elif kind == "infinite":
        fields[data.draw(st.integers(2, 4))] = data.draw(st.sampled_from(INFINITIES))
    elif kind == "negative_start":
        fields[2] = "-1.5"
    elif kind == "end_before_start":
        fields[2], fields[3] = "10.0", "5.0"
    elif kind == "overflow":
        fields[data.draw(st.integers(0, 1))] = data.draw(st.sampled_from(INT64_OVERFLOWS))
    elif kind == "float_id":
        fields[data.draw(st.integers(0, 1))] = data.draw(st.sampled_from(FLOAT_IDS))
    else:
        char = data.draw(st.sampled_from(ODD_CHARS))
        fields[column] = data.draw(st.sampled_from(["{}{}", "{1}{0}"])).format(
            char, fields[column]
        )


def perturbed_trace(data, path) -> None:
    """Rewrite the trace at ``path`` with a few drawn perturbations."""
    with path.open("r", newline="") as handle:
        header, *lines = handle.readlines()
    records = [line.rstrip("\r\n").split(",") for line in lines]
    resized = []
    for _ in range(data.draw(st.integers(0, 3)) if records else 0):
        index = data.draw(st.integers(0, len(records) - 1))
        if data.draw(st.booleans()):
            _perturb_field(data, records[index])
        else:
            resized.append(index)
    for index in resized:
        # Five or seven fields (after the field edits, which expect six).
        if data.draw(st.booleans()):
            del records[index][data.draw(st.integers(0, len(records[index]) - 1))]
        else:
            records[index].append("1")
    ending = data.draw(st.sampled_from(["\r\n", "\n"]))
    lines = [",".join(fields) + ending for fields in records]
    for _ in range(data.draw(st.integers(0, 2))):
        # Blank or whitespace-only lines, anywhere (so also inside a later chunk).
        blank = data.draw(st.sampled_from(["\r\n", "\n", "\r", "  \r\n"]))
        lines.insert(data.draw(st.integers(0, len(lines))), blank)
    text = header + "".join(lines)
    if data.draw(st.booleans()):
        text = text.rstrip("\r\n")  # no final newline
    with path.open("w", newline="") as handle:
        handle.write(text)


class TestEquivalenceWithRowLoop:
    @settings(max_examples=200, deadline=None)
    @given(rows=RECORDS, data=st.data())
    def test_perturbed_traces_read_like_the_row_loop(self, trace_path, rows, data):
        write_records_csv(make_batch(rows), trace_path)
        perturbed_trace(data, trace_path)
        for chunk_size in CHUNK_SIZES:
            actual = outcome(iter_record_batches_csv(trace_path, chunk_size=chunk_size))
            expected = outcome(row_path(trace_path, chunk_size))
            assert actual[1] == expected[1]
            assert_same_batches(actual[0], expected[0])

    @pytest.mark.parametrize(
        "body, line",
        [
            ("1,2,3.0,4.0,5.0,LTE\r\n1,2,3.0,4.0,5.0,LTE#x\r\n", 3),
            ("1,2,3.0,4.0,5.0,LTEX\r\n", 2),
            ('1,2,3.0,4.0,5.0,LTE\r\n\r\n1,2,3.0,4.0,5.0,3G\r\n1,2,3.0,4.0,5.0,4G\r\n', 5),
            ("1,2,3.0,4.0,5.0,LTE\n1,2,3.0,4.0,LTE\n", 3),
            ("1,2,3.0,4.0,5.0,LTE\n1,2,3.0,4.0,5.0,LTE,\n", 3),
            ("1,2,nan,4.0,5.0,LTE\n", 2),
            ("1,2,3.0,4.0,5.0,LTE\n1,2,3.0,inf,5.0,LTE\n", 3),
            ("1,2,3.0,4.0,inf,LTE\n", 2),
            ("1,2,inf,inf,5.0,LTE\n", 2),
            ("1,2,3.0,1e999,5.0,LTE\n", 2),
            ("9223372036854775808,2,3.0,4.0,5.0,LTE\n", 2),
            ("1,2,3.0,4.0,5.0,LTE\n9223372036854775808,2,3.0,4.0,5.0,LTE\n", 3),
            ("1,2,3.0,4.0,5.0,LTE\n1,-9223372036854775809,3.0,4.0,5.0,LTE\n", 3),
            ("1,2,3.0,4.0,5.0,LTE\n1.5,2,3.0,4.0,5.0,LTE\n", 3),
            ("1,1e3,3.0,4.0,5.0,LTE\n", 2),
            ("7.0,2,3.0,4.0,5.0,3G\n", 2),
            ("1,2,3.0,4.0,5.0,3G\x00\x00x\n", 2),
        ],
    )
    def test_bad_row_is_named_by_line(self, tmp_path, body, line):
        path = tmp_path / "trace.csv"
        path.write_text(",".join(COLUMNS) + "\n" + body, newline="")
        for chunk_size in CHUNK_SIZES:
            with pytest.raises(TraceFormatError, match=rf"^{re.escape(str(path))}:{line}\b"):
                list(iter_record_batches_csv(path, chunk_size=chunk_size))

    @pytest.mark.parametrize(
        "record, reason",
        [
            ("1,2,-1.0,4.0,5.0,LTE", "start_s must be non-negative, got -1.0"),
            ("1,2,3.0,4.0,5.0,4G", "network must be one of ['3G', 'LTE'], got '4G'"),
            ("1.5,2,3.0,4.0,5.0,LTE", "invalid literal for int() with base 10: '1.5'"),
            ("1,x7,3.0,4.0,5.0,LTE", "invalid literal for int() with base 10: 'x7'"),
        ],
    )
    def test_a_bad_row_is_named_by_its_line_alone(self, tmp_path, record, reason):
        # The row is replayed as a one-row batch: no "record 0" in the reason.
        path = tmp_path / "trace.csv"
        path.write_text(",".join(COLUMNS) + "\n1,2,3.0,4.0,5.0,LTE\n" + record + "\n")
        for chunk_size in CHUNK_SIZES:
            with pytest.raises(TraceFormatError) as caught:
                list(iter_record_batches_csv(path, chunk_size=chunk_size))
            assert str(caught.value) == f"{path}:3: {reason}"

    @pytest.mark.parametrize("column", [0, 1])
    def test_an_id_with_trailing_nuls_reads_as_its_digits(self, tmp_path, column):
        # The id cast reads a string array, which drops trailing NULs.
        fields = ["1", "2", "3.0", "4.0", "5.0", "LTE"]
        fields[column] = "12\x00\x00"
        path = tmp_path / "trace.csv"
        path.write_text(",".join(COLUMNS) + "\n" + ",".join(fields) + "\n", newline="")
        for chunk_size in CHUNK_SIZES:
            (batch,) = list(iter_record_batches_csv(path, chunk_size=chunk_size))
            ids = batch.user_id if column == 0 else batch.tower_id
            assert ids.tolist() == [12]

    @pytest.mark.parametrize("value", FLOAT_IDS + [str(2**63)])
    def test_float_read_into_an_id_with_a_warning_falls_back(self, tmp_path, monkeypatch, value):
        # numpy 1.23-1.26 read a float in an integer field as a double and cast
        # it, only warning; emulate that on any numpy.
        real_loadtxt = np.loadtxt

        def loadtxt_casting_floats(lines, dtype, **kwargs):
            try:
                return real_loadtxt(lines, dtype=dtype, **kwargs)
            except ValueError:
                as_floats = np.dtype(
                    [(name, "f8" if dtype[name].kind == "i" else dtype[name])
                     for name in dtype.names]
                )
                table = real_loadtxt(lines, dtype=as_floats, **kwargs)
                warnings.warn(
                    "loadtxt(): Parsing an integer via a float is deprecated.",
                    DeprecationWarning,
                    stacklevel=2,
                )
                with np.errstate(invalid="ignore"):
                    return table.astype(dtype)

        monkeypatch.setattr(np, "loadtxt", loadtxt_casting_floats)
        path = tmp_path / "trace.csv"
        path.write_text(
            ",".join(COLUMNS) + "\n1,2,3.0,4.0,5.0,LTE\n" + f"1,{value},3.0,4.0,5.0,LTE\n",
            newline="",
        )
        for chunk_size in CHUNK_SIZES:
            actual = outcome(iter_record_batches_csv(path, chunk_size=chunk_size))
            expected = outcome(row_path(path, chunk_size))
            assert expected[1][0] is TraceFormatError
            assert actual[1] == expected[1]
            assert_same_batches(actual[0], expected[0])

    @pytest.mark.parametrize("char", ODD_CHARS, ids=ascii)
    def test_odd_characters_read_like_the_row_loop(self, tmp_path, char):
        path = tmp_path / "trace.csv"
        record = ["12", "34", "1.5", "2.5", "3.5", "LTE"]
        for column in range(len(record)):
            for text in (char + record[column], record[column] + char):
                fields = record[:column] + [text] + record[column + 1:]
                body = "".join(",".join(row) + "\r\n" for row in (record, fields, record))
                path.write_text(",".join(COLUMNS) + "\r\n" + body, newline="")
                for chunk_size in CHUNK_SIZES:
                    actual = outcome(iter_record_batches_csv(path, chunk_size=chunk_size))
                    expected = outcome(row_path(path, chunk_size))
                    assert actual[1] == expected[1]
                    assert_same_batches(actual[0], expected[0])

    def test_field_over_the_csv_limit_reads_like_the_row_loop(self, tmp_path):
        path = tmp_path / "trace.csv"
        padded = " " * csv.field_size_limit() + "5.0"
        path.write_text(
            ",".join(COLUMNS) + "\n1,2,3.0,4.0,5.0,LTE\n" + f"1,2,3.0,4.0,{padded},LTE\n",
            newline="",
        )
        for chunk_size in CHUNK_SIZES:
            actual = outcome(iter_record_batches_csv(path, chunk_size=chunk_size))
            expected = outcome(row_path(path, chunk_size))
            assert expected[1][0] is csv.Error
            assert actual[1] == expected[1]
            assert_same_batches(actual[0], expected[0])

    def test_quoted_and_underscored_fields_read_like_csv(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(
            ",".join(COLUMNS) + "\n"
            '"7",8,1_000,1_000.5, 2.0 ,"LTE"\n'
            "9,10,1.0,2.0,3.0,3G\n",
            newline="",
        )
        batch = read_record_batch_csv(path)
        assert batch.user_id.tolist() == [7, 9]
        assert batch.start_s.tolist() == [1000.0, 1.0]
        assert batch.end_s.tolist() == [1000.5, 2.0]
        assert batch.bytes_used.tolist() == [2.0, 3.0]
        assert batch.network_labels().tolist() == ["LTE", "3G"]


# ----------------------------------------------------------------------
# Writer output stays on the block parser
# ----------------------------------------------------------------------


def _row_loop_forbidden(*args, **kwargs):
    raise AssertionError("the block parser fell back to the row loop")


class TestWriterOutputNeverFallsBack:
    @settings(max_examples=100, deadline=None)
    @given(rows=RECORDS)
    @example(rows=EXTREMES)
    def test_written_traces_read_without_the_row_loop(self, trace_path, rows):
        written = make_batch(rows)
        write_records_csv(written, trace_path)
        with mock.patch.object(loader, "_iter_csv_rows", _row_loop_forbidden):
            for chunk_size in CHUNK_SIZES:
                chunks = list(iter_record_batches_csv(trace_path, chunk_size=chunk_size))
                assert [len(chunk) for chunk in chunks[:-1]] == [chunk_size] * (len(chunks) - 1)
                assert_same_batches([RecordBatch.concat(chunks)], [written])
            whole = read_record_batch_csv(trace_path)
        assert_same_batches([whole], [written])
        for name in COLUMNS:
            assert getattr(whole, name).flags.c_contiguous, name
