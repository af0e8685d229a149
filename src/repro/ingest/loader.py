"""Trace readers and writers (CSV and JSON-lines).

The paper processes unstructured operator logs on Hadoop; for the
reproduction, traces are exchanged as flat CSV or JSONL files.  Two reader
families are provided:

* record-at-a-time iterators (:func:`read_records_csv`,
  :func:`read_records_jsonl`) yielding :class:`TrafficRecord` objects — the
  compatibility path;
* chunked batch iterators (:func:`iter_record_batches_csv`,
  :func:`iter_record_batches_jsonl`) yielding columnar
  :class:`~repro.ingest.batch.RecordBatch` objects of a configurable chunk
  size — the fast path, which also bounds memory for traces larger than RAM.
  The CSV one parses each chunk of lines with a single :func:`numpy.loadtxt`
  call and replays the file through :mod:`csv` from the first chunk that
  call cannot take exactly as :mod:`csv` would.

All readers are streaming and malformed lines raise
:class:`TraceFormatError` naming the file path and the offending line.
Writers accept either an iterable of records or a :class:`RecordBatch`.
"""

from __future__ import annotations

import csv
import itertools
import json
import warnings
from pathlib import Path
from typing import Iterable, Iterator, NoReturn

import numpy as np

from repro.ingest.batch import RecordBatch
from repro.ingest.records import BaseStationInfo, TrafficRecord

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


def write_records_csv(
    records: Iterable[TrafficRecord] | RecordBatch, path: str | Path
) -> int:
    """Write records (objects or a columnar batch) to a CSV file.

    Returns the number of rows written.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    count = 0
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_RECORD_FIELDS)
        if isinstance(records, RecordBatch):
            networks = records.network_labels()
            writer.writerows(
                [user, tower, repr(start), repr(end), repr(volume), network]
                for user, tower, start, end, volume, network in zip(
                    records.user_id.tolist(),
                    records.tower_id.tolist(),
                    records.start_s.tolist(),
                    records.end_s.tolist(),
                    records.bytes_used.tolist(),
                    networks,
                )
            )
            return len(records)
        for record in records:
            writer.writerow(
                [
                    record.user_id,
                    record.tower_id,
                    repr(record.start_s),
                    repr(record.end_s),
                    repr(record.bytes_used),
                    record.network,
                ]
            )
            count += 1
    return count


def read_records_csv(path: str | Path) -> Iterator[TrafficRecord]:
    """Stream records from a CSV file written by :func:`write_records_csv`."""
    path = Path(path)
    with path.open("r", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or tuple(header) != _RECORD_FIELDS:
            raise TraceFormatError(
                f"{path}: unexpected header {header!r}, expected {_RECORD_FIELDS}"
            )
        for line_number, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(_RECORD_FIELDS):
                raise TraceFormatError(
                    f"{path}:{line_number}: expected {len(_RECORD_FIELDS)} fields, got {len(row)}"
                )
            try:
                yield TrafficRecord(
                    user_id=int(row[0]),
                    tower_id=int(row[1]),
                    start_s=float(row[2]),
                    end_s=float(row[3]),
                    bytes_used=float(row[4]),
                    network=row[5],
                )
            except (ValueError, TypeError) as error:
                raise TraceFormatError(f"{path}:{line_number}: {error}") from error


def write_records_jsonl(
    records: Iterable[TrafficRecord] | RecordBatch, path: str | Path
) -> int:
    """Write records (objects or a columnar batch) to a JSON-lines file.

    Returns the number of rows written.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if isinstance(records, RecordBatch):
        with path.open("w") as handle:
            networks = records.network_labels()
            for user, tower, start, end, volume, network in zip(
                records.user_id.tolist(),
                records.tower_id.tolist(),
                records.start_s.tolist(),
                records.end_s.tolist(),
                records.bytes_used.tolist(),
                networks,
            ):
                handle.write(
                    json.dumps(
                        {
                            "user_id": user,
                            "tower_id": tower,
                            "start_s": start,
                            "end_s": end,
                            "bytes_used": volume,
                            "network": network,
                        }
                    )
                )
                handle.write("\n")
        return len(records)
    count = 0
    with path.open("w") as handle:
        for record in records:
            handle.write(
                json.dumps(
                    {
                        "user_id": record.user_id,
                        "tower_id": record.tower_id,
                        "start_s": record.start_s,
                        "end_s": record.end_s,
                        "bytes_used": record.bytes_used,
                        "network": record.network,
                    }
                )
            )
            handle.write("\n")
            count += 1
    return count


def read_records_jsonl(path: str | Path) -> Iterator[TrafficRecord]:
    """Stream records from a JSON-lines file."""
    path = Path(path)
    with path.open("r") as handle:
        for line_number, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                payload = json.loads(stripped)
                yield TrafficRecord(
                    user_id=int(payload["user_id"]),
                    tower_id=int(payload["tower_id"]),
                    start_s=float(payload["start_s"]),
                    end_s=float(payload["end_s"]),
                    bytes_used=float(payload["bytes_used"]),
                    network=str(payload.get("network", "LTE")),
                )
            except (KeyError, ValueError, TypeError, json.JSONDecodeError) as error:
                raise TraceFormatError(f"{path}:{line_number}: {error}") from error


# ----------------------------------------------------------------------
# Chunked columnar readers
# ----------------------------------------------------------------------


def _raise_locating_bad_row(
    path: Path,
    numbered_rows: list[tuple[int, list[str]]],
    error: Exception,
) -> NoReturn:
    """Re-raise a chunk-level conversion error as a per-line error.

    The vectorized conversion only reports that *some* row in the chunk is
    bad; this slow path (only ever taken on malformed input) replays the
    chunk through the scalar record constructor to name the exact line.
    """
    for line_number, row in numbered_rows:
        try:
            TrafficRecord(
                user_id=int(row[0]),
                tower_id=int(row[1]),
                start_s=float(row[2]),
                end_s=float(row[3]),
                bytes_used=float(row[4]),
                network=row[5],
            )
        except (ValueError, TypeError) as row_error:
            raise TraceFormatError(f"{path}:{line_number}: {row_error}") from row_error
    first = numbered_rows[0][0]
    last = numbered_rows[-1][0]
    raise TraceFormatError(f"{path}:{first}-{last}: {error}") from error


def _batch_from_csv_rows(
    path: Path, numbered_rows: list[tuple[int, list[str]]]
) -> RecordBatch:
    """Convert accumulated CSV rows into one columnar batch."""
    rows = [row for _, row in numbered_rows]
    try:
        return RecordBatch(
            user_id=np.array([row[0] for row in rows]).astype(np.int64),
            tower_id=np.array([row[1] for row in rows]).astype(np.int64),
            start_s=np.array([row[2] for row in rows], dtype=np.float64),
            end_s=np.array([row[3] for row in rows], dtype=np.float64),
            bytes_used=np.array([row[4] for row in rows], dtype=np.float64),
            network=np.array([row[5] for row in rows]),
        )
    except (ValueError, TypeError, OverflowError) as error:
        _raise_locating_bad_row(path, numbered_rows, error)


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

    The fast counterpart of :func:`read_records_csv`.  Each block of
    ``chunk_size`` lines is parsed by one :func:`numpy.loadtxt` call, so
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
    with path.open("r", newline="") as handle:
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


def iter_record_batches_jsonl(
    path: str | Path, *, chunk_size: int = DEFAULT_CHUNK_SIZE
) -> Iterator[RecordBatch]:
    """Stream a JSONL trace as columnar batches of up to ``chunk_size`` records.

    The fast counterpart of :func:`read_records_jsonl`; malformed lines
    raise :class:`TraceFormatError` naming the file path and line.
    """
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    path = Path(path)

    def flush(
        numbers: list[int], columns: tuple[list, list, list, list, list, list]
    ) -> RecordBatch:
        user_ids, tower_ids, starts, ends, volumes, networks = columns
        try:
            return RecordBatch(
                user_id=np.asarray(user_ids, dtype=np.int64),
                tower_id=np.asarray(tower_ids, dtype=np.int64),
                start_s=np.asarray(starts, dtype=np.float64),
                end_s=np.asarray(ends, dtype=np.float64),
                bytes_used=np.asarray(volumes, dtype=np.float64),
                network=np.asarray(networks),
            )
        except (ValueError, TypeError, OverflowError) as error:
            numbered_rows = [
                (
                    number,
                    [str(user), str(tower), str(start), str(end), str(volume), network],
                )
                for number, user, tower, start, end, volume, network in zip(
                    numbers, user_ids, tower_ids, starts, ends, volumes, networks
                )
            ]
            _raise_locating_bad_row(path, numbered_rows, error)

    numbers: list[int] = []
    columns: tuple[list, list, list, list, list, list] = ([], [], [], [], [], [])
    with path.open("r") as handle:
        for line_number, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                payload = json.loads(stripped)
                columns[0].append(int(payload["user_id"]))
                columns[1].append(int(payload["tower_id"]))
                columns[2].append(float(payload["start_s"]))
                columns[3].append(float(payload["end_s"]))
                columns[4].append(float(payload["bytes_used"]))
                columns[5].append(str(payload.get("network", "LTE")))
            except (KeyError, ValueError, TypeError, json.JSONDecodeError) as error:
                raise TraceFormatError(f"{path}:{line_number}: {error}") from error
            numbers.append(line_number)
            if len(numbers) >= chunk_size:
                yield flush(numbers, columns)
                numbers = []
                columns = ([], [], [], [], [], [])
        if numbers:
            yield flush(numbers, columns)


def read_record_batch_jsonl(path: str | Path) -> RecordBatch:
    """Read an entire JSONL trace into one columnar batch."""
    return RecordBatch.concat(iter_record_batches_jsonl(path))


def write_stations_csv(stations: Iterable[BaseStationInfo], path: str | Path) -> int:
    """Write station metadata to a CSV file; returns the number of rows."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    count = 0
    with path.open("w", newline="") as handle:
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
    """Read station metadata from a CSV file."""
    path = Path(path)
    stations: list[BaseStationInfo] = []
    with path.open("r", newline="") as handle:
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
                stations.append(
                    BaseStationInfo(
                        tower_id=int(row[0]),
                        address=row[1],
                        lat=float(row[2]) if row[2] else None,
                        lon=float(row[3]) if row[3] else None,
                    )
                )
            except (ValueError, TypeError) as error:
                raise TraceFormatError(f"{path}:{line_number}: {error}") from error
    return stations
