"""One object per trace row: the input of the record-at-a-time oracles.

:class:`TrafficRecord` holds the six fields of one row of the paper's trace
(device, tower, connection start and end, bytes, technology), the row type
:class:`~repro.ingest.batch.RecordBatch` stores as columns.  The cleaning
and aggregation oracles walk these objects one at a time; :func:`batch_of`
and :func:`records_of` convert between the two layouts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from repro.ingest.batch import NETWORK_CODES, NETWORK_NAMES, RecordBatch


@dataclass(frozen=True, order=True)
class TrafficRecord:
    """A single data-connection log entry.

    Attributes
    ----------
    user_id:
        Anonymised device identifier.
    tower_id:
        Identifier of the base station that served the connection.
    start_s, end_s:
        Start and end of the connection, in seconds since the start of the
        observation window.
    bytes_used:
        Amount of 3G/LTE data transferred during the connection, in bytes.
    network:
        Radio technology of the connection (``"3G"`` or ``"LTE"``).
    """

    user_id: int
    tower_id: int
    start_s: float
    end_s: float
    bytes_used: float
    network: str = "LTE"

    def __post_init__(self) -> None:
        # The comparisons are written negated so NaN values are rejected too.
        if not self.start_s >= 0:
            raise ValueError(f"start_s must be non-negative, got {self.start_s}")
        if not self.end_s >= self.start_s:
            raise ValueError(
                f"end_s ({self.end_s}) must not precede start_s ({self.start_s})"
            )
        if not self.bytes_used >= 0:
            raise ValueError(f"bytes_used must be non-negative, got {self.bytes_used}")
        for name in ("start_s", "end_s", "bytes_used"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.network not in ("3G", "LTE"):
            raise ValueError(f"network must be '3G' or 'LTE', got {self.network!r}")

    @property
    def duration_s(self) -> float:
        """Duration of the connection in seconds."""
        return self.end_s - self.start_s

    def identity_key(self) -> tuple[int, int, float, float, float, str]:
        """Return the tuple identifying exact duplicates of this record."""
        return (
            self.user_id,
            self.tower_id,
            self.start_s,
            self.end_s,
            self.bytes_used,
            self.network,
        )

    def conflict_key(self) -> tuple[int, int, float, float]:
        """Return the tuple identifying conflicting versions of one connection.

        Two records conflict when the same device reports the same connection
        interval at the same tower with *different* byte counts — a known
        artefact of double-counting in operator logging systems.
        """
        return (self.user_id, self.tower_id, self.start_s, self.end_s)

    def with_bytes(self, bytes_used: float) -> "TrafficRecord":
        """Return a copy of the record with a different byte count."""
        return replace(self, bytes_used=bytes_used)


def batch_of(records: Iterable[TrafficRecord]) -> RecordBatch:
    """Build a columnar batch from record objects, in order."""
    rows = [
        (r.user_id, r.tower_id, r.start_s, r.end_s, r.bytes_used, NETWORK_CODES[r.network])
        for r in records
    ]
    users, towers, starts, ends, volumes, networks = zip(*rows) if rows else [()] * 6
    return RecordBatch(
        user_id=np.asarray(users, dtype=np.int64),
        tower_id=np.asarray(towers, dtype=np.int64),
        start_s=np.asarray(starts, dtype=np.float64),
        end_s=np.asarray(ends, dtype=np.float64),
        bytes_used=np.asarray(volumes, dtype=np.float64),
        network=np.asarray(networks, dtype=np.uint8),
    )


def records_of(batch: RecordBatch) -> list[TrafficRecord]:
    """Materialise a batch as record objects, row by row."""
    return [
        TrafficRecord(
            user_id=user,
            tower_id=tower,
            start_s=start,
            end_s=end,
            bytes_used=volume,
            network=NETWORK_NAMES[code],
        )
        for user, tower, start, end, volume, code in zip(
            batch.user_id.tolist(),
            batch.tower_id.tolist(),
            batch.start_s.tolist(),
            batch.end_s.tolist(),
            batch.bytes_used.tolist(),
            batch.network.tolist(),
        )
    ]
