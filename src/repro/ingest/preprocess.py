"""End-to-end preprocessing pipeline (Section 2.2 of the paper).

Three steps, in order:

1. eliminate redundant and conflicting logs (:mod:`repro.ingest.dedup`);
2. geocode base-station addresses to coordinates (:mod:`repro.ingest.geocode`);
3. compute the city-wide traffic density (:mod:`repro.ingest.density`).

The pipeline takes a raw record batch plus station metadata and returns the
cleaned batch, geocoded stations, the density map and a combined report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ingest.batch import RecordBatch
from repro.ingest.dedup import DedupReport, clean_batch
from repro.ingest.density import TrafficDensityMap, compute_density_map
from repro.ingest.geocode import Geocoder, GeocodingReport, geocode_stations
from repro.ingest.records import BaseStationInfo


@dataclass(frozen=True)
class PreprocessingReport:
    """Combined report of all preprocessing steps."""

    dedup: DedupReport
    geocoding: GeocodingReport

    @property
    def num_clean_records(self) -> int:
        """Number of records surviving the cleaning step."""
        return self.dedup.num_output_records


@dataclass
class PreprocessingResult:
    """Outputs of the preprocessing pipeline."""

    records: RecordBatch
    stations: list[BaseStationInfo]
    density: TrafficDensityMap | None
    report: PreprocessingReport

    def station_by_id(self) -> dict[int, BaseStationInfo]:
        """Return stations indexed by tower id."""
        return {station.tower_id: station for station in self.stations}


def _per_tower_volume(records: RecordBatch) -> dict[int, float]:
    """Sum bytes per tower over all records."""
    towers, inverse = np.unique(records.tower_id, return_inverse=True)
    sums = np.bincount(inverse, weights=records.bytes_used, minlength=towers.size)
    return {int(tower): float(total) for tower, total in zip(towers, sums)}


def preprocess_trace(
    records: RecordBatch,
    stations: list[BaseStationInfo],
    geocoder: Geocoder | None = None,
    *,
    compute_density: bool = True,
    density_grid_size: int = 40,
) -> PreprocessingResult:
    """Run the full preprocessing pipeline.

    Parameters
    ----------
    records:
        Raw (possibly corrupted) traffic records.
    stations:
        Station metadata; stations missing coordinates are geocoded when a
        ``geocoder`` is provided.
    geocoder:
        Address-resolution service; optional when all stations already carry
        coordinates.
    compute_density:
        Whether the final density map is computed (requires geocoded
        stations).
    density_grid_size:
        Resolution of the density grid along each axis.
    """
    cleaned, dedup_report = clean_batch(records)

    if geocoder is not None:
        geocoded_stations, geocoding_report = geocode_stations(stations, geocoder)
    else:
        geocoded_stations = list(stations)
        resolved = sum(1 for station in stations if station.is_geocoded)
        geocoding_report = GeocodingReport(
            num_stations=len(stations),
            num_resolved=resolved,
            num_failed=len(stations) - resolved,
            failed_addresses=tuple(
                station.address for station in stations if not station.is_geocoded
            ),
        )

    density: TrafficDensityMap | None = None
    if compute_density:
        located = [station for station in geocoded_stations if station.is_geocoded]
        if located:
            volumes = _per_tower_volume(cleaned)
            lats = np.array([station.lat for station in located], dtype=float)
            lons = np.array([station.lon for station in located], dtype=float)
            traffic = np.array(
                [volumes.get(station.tower_id, 0.0) for station in located], dtype=float
            )
            density = compute_density_map(
                lats, lons, traffic, num_rows=density_grid_size, num_cols=density_grid_size
            )

    report = PreprocessingReport(dedup=dedup_report, geocoding=geocoding_report)
    return PreprocessingResult(
        records=cleaned,
        stations=geocoded_stations,
        density=density,
        report=report,
    )
