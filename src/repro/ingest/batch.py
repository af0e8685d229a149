"""Columnar record batches — the struct-of-arrays data plane.

The paper's measurement pipeline processed petabytes of operator logs on
Hadoop before any tower-level analysis.  The single-machine analogue of that
data plane is :class:`RecordBatch`: the six fields of a trace row stored as
parallel NumPy arrays (``user_id``, ``tower_id``, ``start_s``, ``end_s``,
``bytes_used`` and ``network`` as small-integer codes).  It is the one
record type: every layer that touches records — loading, deduplication,
conflict resolution, slot-split aggregation, the synthetic session
generator — operates on batches.  Batches are immutable by convention:
operations return new batches (``take``, ``concat``, ``iter_chunks``)
rather than mutating columns in place.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

#: Mapping from radio-technology label to the compact column code.
NETWORK_CODES: dict[str, int] = {"3G": 0, "LTE": 1}

#: Inverse mapping, indexable by code.
NETWORK_NAMES: tuple[str, ...] = ("3G", "LTE")


def encode_networks(networks: Sequence[str] | np.ndarray) -> np.ndarray:
    """Encode network labels (``"3G"``/``"LTE"``) as a ``uint8`` code array.

    Labels may be ``str`` or ``bytes`` (the CSV block parser reads them as
    ``bytes``); integer arrays are taken as codes and range-checked.
    """
    labels = np.asarray(networks)
    if labels.dtype.kind in ("u", "i"):
        bad = (labels < 0) | (labels >= len(NETWORK_NAMES))
        if labels.size and np.any(bad):
            bad_index = int(np.flatnonzero(bad)[0])
            raise ValueError(
                f"record {bad_index}: network code {labels[bad_index]} is not one "
                f"of {sorted(NETWORK_CODES.values())}"
            )
        return labels.astype(np.uint8)
    as_bytes = labels.dtype.kind == "S"
    codes = np.full(labels.shape, 255, dtype=np.uint8)
    for name, code in NETWORK_CODES.items():
        codes[labels == (name.encode() if as_bytes else name)] = code
    if codes.size and np.any(codes == 255):
        bad_index = int(np.flatnonzero(codes == 255)[0])
        raise ValueError(
            f"record {bad_index}: network must be one of {sorted(NETWORK_CODES)}, "
            f"got {labels[bad_index].item()!r}"
        )
    return codes


def decode_networks(codes: np.ndarray) -> np.ndarray:
    """Decode a ``uint8`` code array back to network labels."""
    return np.asarray(NETWORK_NAMES)[np.asarray(codes, dtype=np.int64)]


@dataclass
class RecordBatch:
    """A batch of traffic records in columnar (struct-of-arrays) layout.

    Row ``i`` of the six columns is one data-connection log entry of the
    paper's trace (Section 2).

    Attributes
    ----------
    user_id:
        ``int64`` anonymised device identifiers.
    tower_id:
        ``int64`` identifiers of the base station that served each
        connection.
    start_s, end_s:
        ``float64`` start and end of each connection, in seconds since the
        start of the observation window.
    bytes_used:
        ``float64`` 3G/LTE bytes transferred during each connection.
    network:
        ``uint8`` radio-technology codes (see :data:`NETWORK_CODES`); string
        arrays are accepted and encoded on construction.

    Every row must have ``0 <= start_s <= end_s``, ``bytes_used >= 0``, all
    three finite, and a known network; the first row that breaks one raises
    ``ValueError("record <row>: <reason>")``.
    """

    user_id: np.ndarray
    tower_id: np.ndarray
    start_s: np.ndarray
    end_s: np.ndarray
    bytes_used: np.ndarray
    network: np.ndarray

    def __post_init__(self) -> None:
        self.user_id = np.asarray(self.user_id, dtype=np.int64)
        self.tower_id = np.asarray(self.tower_id, dtype=np.int64)
        self.start_s = np.asarray(self.start_s, dtype=np.float64)
        self.end_s = np.asarray(self.end_s, dtype=np.float64)
        self.bytes_used = np.asarray(self.bytes_used, dtype=np.float64)
        self.network = encode_networks(self.network)
        length = self.user_id.shape[0] if self.user_id.ndim == 1 else -1
        for name in ("user_id", "tower_id", "start_s", "end_s", "bytes_used", "network"):
            column = getattr(self, name)
            if column.ndim != 1 or column.shape[0] != length:
                raise ValueError(
                    f"column {name!r} must be 1-D of length {length}, "
                    f"got shape {column.shape}"
                )
        self._validate_values()

    def _validate_values(self) -> None:
        """Check the per-row invariants of the class docstring.

        The comparisons are written negated so NaN values are rejected too
        (NaNs would silently corrupt the sort-based cleaning primitives);
        infinities are rejected last (an infinite volume poisons the
        normalised vectors, an infinite end the slot arithmetic).
        """

        def first_bad(mask: np.ndarray) -> int:
            return int(np.flatnonzero(mask)[0])

        bad = ~(self.start_s >= 0)
        if np.any(bad):
            index = first_bad(bad)
            raise ValueError(
                f"record {index}: start_s must be non-negative, got {self.start_s[index]}"
            )
        bad = ~(self.end_s >= self.start_s)
        if np.any(bad):
            index = first_bad(bad)
            raise ValueError(
                f"record {index}: end_s ({self.end_s[index]}) must not precede "
                f"start_s ({self.start_s[index]})"
            )
        bad = ~(self.bytes_used >= 0)
        if np.any(bad):
            index = first_bad(bad)
            raise ValueError(
                f"record {index}: bytes_used must be non-negative, "
                f"got {self.bytes_used[index]}"
            )
        for name in ("start_s", "end_s", "bytes_used"):
            column = getattr(self, name)
            bad = ~np.isfinite(column)
            if np.any(bad):
                index = first_bad(bad)
                raise ValueError(f"record {index}: {name} must be finite, got {column[index]}")
        bad = self.network >= len(NETWORK_NAMES)
        if np.any(bad):
            index = first_bad(bad)
            raise ValueError(
                f"record {index}: network code {self.network[index]} is not one of "
                f"{sorted(NETWORK_CODES.values())}"
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return int(self.user_id.shape[0])

    @property
    def num_records(self) -> int:
        """Number of records in the batch."""
        return len(self)

    @property
    def duration_s(self) -> np.ndarray:
        """Per-record connection duration in seconds."""
        return self.end_s - self.start_s

    @property
    def total_bytes(self) -> float:
        """Sum of the ``bytes_used`` column."""
        return float(self.bytes_used.sum())

    def network_labels(self) -> np.ndarray:
        """Return the network column decoded back to string labels."""
        return decode_networks(self.network)

    def columns(self) -> tuple[np.ndarray, ...]:
        """Return the six columns in schema order."""
        return (
            self.user_id,
            self.tower_id,
            self.start_s,
            self.end_s,
            self.bytes_used,
            self.network,
        )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def empty(cls) -> "RecordBatch":
        """Return a zero-length batch."""
        return cls(
            user_id=np.empty(0, dtype=np.int64),
            tower_id=np.empty(0, dtype=np.int64),
            start_s=np.empty(0, dtype=np.float64),
            end_s=np.empty(0, dtype=np.float64),
            bytes_used=np.empty(0, dtype=np.float64),
            network=np.empty(0, dtype=np.uint8),
        )

    @classmethod
    def concat(cls, batches: Iterable["RecordBatch"]) -> "RecordBatch":
        """Concatenate batches in order; returns an empty batch for no input."""
        parts = list(batches)
        if not parts:
            return cls.empty()
        if len(parts) == 1:
            return parts[0]
        return cls._from_validated(
            np.concatenate([part.user_id for part in parts]),
            np.concatenate([part.tower_id for part in parts]),
            np.concatenate([part.start_s for part in parts]),
            np.concatenate([part.end_s for part in parts]),
            np.concatenate([part.bytes_used for part in parts]),
            np.concatenate([part.network for part in parts]),
        )

    # ------------------------------------------------------------------
    # Row selection
    # ------------------------------------------------------------------

    @classmethod
    def _from_validated(
        cls,
        user_id: np.ndarray,
        tower_id: np.ndarray,
        start_s: np.ndarray,
        end_s: np.ndarray,
        bytes_used: np.ndarray,
        network: np.ndarray,
    ) -> "RecordBatch":
        """Build a batch from already-validated columns, skipping the checks.

        Internal fast path for pure row-selection operations (``take``,
        ``concat``, …) whose inputs came out of a validated batch; re-running
        the O(n) invariant scan on every selection would dominate the hot
        cleaning loops.
        """
        batch = object.__new__(cls)
        batch.user_id = user_id
        batch.tower_id = tower_id
        batch.start_s = start_s
        batch.end_s = end_s
        batch.bytes_used = bytes_used
        batch.network = network
        return batch

    def take(self, indices: np.ndarray) -> "RecordBatch":
        """Return a new batch holding the rows at ``indices`` (in that order).

        Boolean masks are delegated to :meth:`filter` (a bare int cast would
        silently turn the mask into row indices 0 and 1).
        """
        idx = np.asarray(indices)
        if idx.dtype == np.bool_:
            return self.filter(idx)
        idx = idx.astype(np.int64, copy=False)
        return RecordBatch._from_validated(
            self.user_id[idx],
            self.tower_id[idx],
            self.start_s[idx],
            self.end_s[idx],
            self.bytes_used[idx],
            self.network[idx],
        )

    def filter(self, mask: np.ndarray) -> "RecordBatch":
        """Return a new batch holding the rows where ``mask`` is true."""
        keep = np.asarray(mask, dtype=bool)
        if keep.shape != (len(self),):
            raise ValueError(
                f"mask must have shape ({len(self)},), got {keep.shape}"
            )
        return self.take(np.flatnonzero(keep))

    def with_bytes(self, bytes_used: np.ndarray) -> "RecordBatch":
        """Return a copy of the batch with a replaced ``bytes_used`` column."""
        volumes = np.asarray(bytes_used, dtype=np.float64)
        if volumes.shape != (len(self),):
            raise ValueError(
                f"bytes_used must have shape ({len(self)},), got {volumes.shape}"
            )
        bad = ~(volumes >= 0)
        if volumes.size and np.any(bad):
            index = int(np.flatnonzero(bad)[0])
            raise ValueError(
                f"record {index}: bytes_used must be non-negative, got {volumes[index]}"
            )
        return RecordBatch._from_validated(
            self.user_id,
            self.tower_id,
            self.start_s,
            self.end_s,
            volumes,
            self.network,
        )

    def sort_by_start(self) -> "RecordBatch":
        """Return the batch sorted by ``start_s`` (stable)."""
        return self.take(np.argsort(self.start_s, kind="stable"))

    def iter_chunks(self, chunk_size: int) -> Iterator["RecordBatch"]:
        """Yield consecutive sub-batches of at most ``chunk_size`` rows."""
        if chunk_size <= 0:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        for offset in range(0, len(self), chunk_size):
            yield self.take(np.arange(offset, min(offset + chunk_size, len(self))))
