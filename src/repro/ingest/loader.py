"""Trace readers and writers (records CSV and stations CSV).

The paper processes unstructured operator logs on Hadoop; for the
reproduction, traces are exchanged as flat CSV files.
:func:`iter_record_batches_csv` streams a records file as columnar
:class:`~repro.ingest.batch.RecordBatch` objects of a configurable chunk
size, which bounds memory for traces larger than RAM.  It parses each chunk
of lines with a single :func:`numpy.loadtxt` call and replays the file
through :mod:`csv` from the first chunk that call cannot take exactly as
:mod:`csv` would.

Both files are UTF-8 text.  Malformed lines, including a line holding a
byte that is not UTF-8, raise :class:`TraceFormatError` naming the file
path and the offending line.
"""

from __future__ import annotations

import csv
import itertools
import warnings
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator, TextIO

import numpy as np

from repro.ingest.batch import RecordBatch
from repro.ingest.records import BaseStationInfo

_RECORD_FIELDS = ("user_id", "tower_id", "start_s", "end_s", "bytes_used", "network")
#: One CSV record as the block parser reads it.  The label field holds four
#: bytes, one more than the longest label, so a longer label is never cut
#: down to a valid one.
_RECORD_DTYPE = np.dtype(list(zip(_RECORD_FIELDS, ("i8", "i8", "f8", "f8", "f8", "S4"))))
#: Characters :func:`numpy.loadtxt` reads differently from the row loop: a
#: NUL is indistinguishable from the padding of the label field, and
#: ``\x1c``–``\x1f`` are stripped around numbers where :mod:`numpy`'s string
#: casts reject them.
_BLOCK_UNSAFE_CHARS = "\x00\x1c\x1d\x1e\x1f"
_STATION_FIELDS = ("tower_id", "address", "lat", "lon")

#: Default number of records per batch for the chunked readers.
DEFAULT_CHUNK_SIZE = 100_000


class TraceFormatError(ValueError):
    """Raised when a trace file does not match the expected schema."""


@contextmanager
def _read_utf8(path: Path) -> Iterator[TextIO]:
    """Open ``path`` for reading as UTF-8 CSV text.

    A byte that is not UTF-8 raises :class:`TraceFormatError` naming the
    line that holds it.  The text reader decodes ahead of the line it hands
    out, so that line is found by reading the file again with each
    undecodable byte escaped.
    """
    try:
        with path.open("r", encoding="utf-8", newline="") as handle:
            yield handle
    except UnicodeDecodeError as error:
        with path.open("r", encoding="utf-8", errors="surrogateescape", newline="") as handle:
            for line_number, line in enumerate(handle, start=1):
                if line.isascii():
                    continue
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError as bad:
                    byte = ord(line[bad.start]) - 0xDC00
                    raise TraceFormatError(
                        f"{path}:{line_number}: byte 0x{byte:02x} is not valid UTF-8"
                    ) from None
        raise TraceFormatError(f"{path}: not valid UTF-8: {error.reason}") from None


def write_records_csv(records: RecordBatch, path: str | Path) -> int:
    """Write a columnar batch to a CSV file; returns the number of rows."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_RECORD_FIELDS)
        writer.writerows(
            [user, tower, repr(start), repr(end), repr(volume), network]
            for user, tower, start, end, volume, network in zip(
                records.user_id.tolist(),
                records.tower_id.tolist(),
                records.start_s.tolist(),
                records.end_s.tolist(),
                records.bytes_used.tolist(),
                records.network_labels(),
            )
        )
    return len(records)


# ----------------------------------------------------------------------
# Chunked columnar readers
# ----------------------------------------------------------------------


def _batch_from_csv_rows(
    path: Path, numbered_rows: list[tuple[int, list[str]]]
) -> RecordBatch:
    """Convert accumulated CSV rows into one columnar batch.

    The vectorized conversion only reports that *some* row is bad; on
    failure each row is replayed as a one-row batch, with the same casts, to
    name the exact line.
    """
    try:
        return _batch_of_rows([row for _, row in numbered_rows])
    except (ValueError, TypeError, OverflowError) as error:
        for line_number, row in numbered_rows:
            try:
                _batch_of_rows([row])
            except (ValueError, TypeError, OverflowError) as row_error:
                reason = str(row_error).removeprefix("record 0: ")
                raise TraceFormatError(f"{path}:{line_number}: {reason}") from row_error
        first = numbered_rows[0][0]
        last = numbered_rows[-1][0]
        raise TraceFormatError(f"{path}:{first}-{last}: {error}") from error


def _batch_of_rows(rows: list[list[str]]) -> RecordBatch:
    """Cast CSV rows (six texts each) to a validated batch."""
    return RecordBatch(
        user_id=_ids_of([row[0] for row in rows]),
        tower_id=_ids_of([row[1] for row in rows]),
        start_s=np.array([row[2] for row in rows], dtype=np.float64),
        end_s=np.array([row[3] for row in rows], dtype=np.float64),
        bytes_used=np.array([row[4] for row in rows], dtype=np.float64),
        network=np.array([row[5] for row in rows]),
    )


def _ids_of(texts: list[str]) -> np.ndarray:
    """Cast id texts to int64 as ``np.array(texts).astype(np.int64)`` does.

    A text the cast rejects is named as Python's ``int()`` names it
    (``'1.5'``), not as numpy 2 does (``np.str_('1.5')``).  The cast itself
    is unchanged, so the same texts load: the string array drops trailing
    NULs, so ``12`` followed by a NUL reads as 12.
    """
    column = np.array(texts)
    try:
        return column.astype(np.int64)
    except ValueError:
        for text in column.tolist():
            int(text)
        raise


def _parse_block(lines: list[str]) -> RecordBatch | None:
    """Parse a block of CSV record lines with one :func:`numpy.loadtxt` call.

    Returns ``None`` when the block must go through the row loop instead,
    because ``loadtxt`` could read it differently from :mod:`csv` and the
    column casts of :func:`_batch_from_csv_rows`:

    * a blank line, which ``loadtxt`` drops (that would move the
      record-count chunk boundaries);
    * non-ASCII text (``loadtxt`` reads some non-ASCII letters as digits)
      or one of :data:`_BLOCK_UNSAFE_CHARS`;
    * a line longer than :mod:`csv` allows a field to be;
    * a line ``loadtxt`` rejects: quoted fields, ``1_000``, a wrong field
      count, ...;
    * a warning from ``loadtxt``: an empty block, or (numpy 1.23–1.26) a
      float such as ``1.5`` in an integer field, which those versions read
      as a double and cast, only warning that this is deprecated;
    * an unknown label, or a record that fails :class:`RecordBatch`
      validation.

    The row loop then either accepts the block or names the offending line.
    """
    text = "".join(lines)
    if (
        not text.isascii()
        or any(char in text for char in _BLOCK_UNSAFE_CHARS)
        or max(map(len, lines)) > csv.field_size_limit()
    ):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(
                lines, dtype=_RECORD_DTYPE, delimiter=",", comments=None,
                quotechar=None, ndmin=1,
            )
    except (ValueError, Warning):
        return None
    if len(table) != len(lines):
        return None
    try:
        return RecordBatch(
            **{name: np.ascontiguousarray(table[name]) for name in _RECORD_FIELDS[:-1]},
            network=table["network"],
        )
    except ValueError:
        return None


def _iter_csv_rows(
    path: Path, lines: Iterable[str], first_line: int, chunk_size: int
) -> Iterator[RecordBatch]:
    """The row loop: :mod:`csv` rows from ``lines``, ``chunk_size`` records a batch.

    ``first_line`` is the line number of the first of ``lines``.  Blank
    rows are skipped and do not count towards a chunk; malformed rows raise
    :class:`TraceFormatError` naming ``path`` and the line.
    """
    pending: list[tuple[int, list[str]]] = []
    for line_number, row in enumerate(csv.reader(lines), start=first_line):
        if not row:
            continue
        if len(row) != len(_RECORD_FIELDS):
            raise TraceFormatError(
                f"{path}:{line_number}: expected {len(_RECORD_FIELDS)} fields, got {len(row)}"
            )
        pending.append((line_number, row))
        if len(pending) >= chunk_size:
            yield _batch_from_csv_rows(path, pending)
            pending = []
    if pending:
        yield _batch_from_csv_rows(path, pending)


def iter_record_batches_csv(
    path: str | Path, *, chunk_size: int = DEFAULT_CHUNK_SIZE
) -> Iterator[RecordBatch]:
    """Stream a CSV trace as columnar batches of up to ``chunk_size`` records.

    Each block of ``chunk_size`` lines is parsed by one :func:`numpy.loadtxt` call, so
    memory stays bounded by the chunk size and no Python object is built
    per field.  From the first block that call cannot parse exactly as
    :mod:`csv` would (see :func:`_parse_block`), the rest of the file goes
    through the row loop, so the batches — chunk boundaries included — are
    always those of the row loop over the whole file.  Files written by
    :func:`write_records_csv` never leave the block parser.  Malformed rows
    raise :class:`TraceFormatError` naming the file path and line.
    """
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    path = Path(path)
    with _read_utf8(path) as handle:
        header = next(csv.reader(handle), None)
        if header is None or tuple(header) != _RECORD_FIELDS:
            raise TraceFormatError(
                f"{path}: unexpected header {header!r}, expected {_RECORD_FIELDS}"
            )
        line_number = 2
        while lines := list(itertools.islice(handle, chunk_size)):
            batch = _parse_block(lines)
            if batch is None:
                yield from _iter_csv_rows(
                    path, itertools.chain(lines, handle), line_number, chunk_size
                )
                return
            yield batch
            line_number += len(lines)


def read_record_batch_csv(path: str | Path) -> RecordBatch:
    """Read an entire CSV trace into one columnar batch."""
    return RecordBatch.concat(iter_record_batches_csv(path))


def write_stations_csv(stations: Iterable[BaseStationInfo], path: str | Path) -> int:
    """Write station metadata to a CSV file; returns the number of rows."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    count = 0
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_STATION_FIELDS)
        for station in stations:
            writer.writerow(
                [
                    station.tower_id,
                    station.address,
                    "" if station.lat is None else repr(station.lat),
                    "" if station.lon is None else repr(station.lon),
                ]
            )
            count += 1
    return count


def read_stations_csv(path: str | Path) -> list[BaseStationInfo]:
    """Read station metadata from a CSV file.

    A directory must list at least one station and each tower id once (one
    id is one row of the traffic matrix); a repeated id names both lines.
    """
    path = Path(path)
    stations: list[BaseStationInfo] = []
    line_of_tower: dict[int, int] = {}
    with _read_utf8(path) as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or tuple(header) != _STATION_FIELDS:
            raise TraceFormatError(
                f"{path}: unexpected header {header!r}, expected {_STATION_FIELDS}"
            )
        for line_number, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(_STATION_FIELDS):
                raise TraceFormatError(
                    f"{path}:{line_number}: expected {len(_STATION_FIELDS)} fields, got {len(row)}"
                )
            try:
                station = BaseStationInfo(
                    tower_id=int(row[0]),
                    address=row[1],
                    lat=float(row[2]) if row[2] else None,
                    lon=float(row[3]) if row[3] else None,
                )
            except (ValueError, TypeError) as error:
                raise TraceFormatError(f"{path}:{line_number}: {error}") from error
            if station.tower_id in line_of_tower:
                raise TraceFormatError(
                    f"{path}:{line_number}: tower {station.tower_id} is already "
                    f"listed on line {line_of_tower[station.tower_id]}"
                )
            line_of_tower[station.tower_id] = line_number
            stations.append(station)
    if not stations:
        raise TraceFormatError(f"{path}: no stations listed")
    return stations
