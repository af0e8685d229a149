"""Per-station metadata of the raw trace.

Each entry of the paper's trace names the base station that served the
connection by identifier and address; the rows themselves are stored as
columns of a :class:`~repro.ingest.batch.RecordBatch`.
:class:`BaseStationInfo` carries the per-station metadata (address and,
once geocoded, coordinates).
"""

from __future__ import annotations

from dataclasses import dataclass


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
