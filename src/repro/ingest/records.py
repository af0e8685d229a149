"""Record types shared by the synthetic generator and the ingestion pipeline.

Each entry of the paper's trace contains the anonymised device identifier,
the start and end time of the data connection, the base station identifier
and address, and the amount of 3G/LTE data used in the connection.  The
:class:`TrafficRecord` dataclass mirrors that schema exactly;
:class:`BaseStationInfo` carries the per-station metadata (address and, once
geocoded, coordinates).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace


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

    @property
    def midpoint_s(self) -> float:
        """Midpoint of the connection in seconds."""
        return 0.5 * (self.start_s + self.end_s)

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


@dataclass(frozen=True)
class BaseStationInfo:
    """Metadata of one base station as present in the raw trace.

    Raw traces only carry the station address; geocoding (Section 2.2 of the
    paper) fills in the latitude/longitude.
    """

    tower_id: int
    address: str
    lat: float | None = None
    lon: float | None = None

    @property
    def is_geocoded(self) -> bool:
        """Return ``True`` when coordinates are available."""
        return self.lat is not None and self.lon is not None

    def with_coordinates(self, lat: float, lon: float) -> "BaseStationInfo":
        """Return a copy of the station metadata with coordinates filled in."""
        return BaseStationInfo(tower_id=self.tower_id, address=self.address, lat=lat, lon=lon)
