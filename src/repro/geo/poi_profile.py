"""Per-tower POI profiles and per-cluster POI statistics.

The paper measures the number of the four main POI types (resident,
transport, office, entertainment) within 200 m of each cell tower and uses
the distribution to label and validate the traffic-pattern clusters
(Tables 2–3, Fig. 9).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.synth.poi import POI, POICategory, poi_coordinate_arrays
from repro.utils.geometry import EARTH_RADIUS_KM, haversine_km
from repro.utils.stats import min_max_normalize


@dataclass
class POIProfile:
    """POI counts per tower.

    Attributes
    ----------
    tower_ids:
        Tower identifier per row.
    counts:
        Array of shape ``(num_towers, 4)``; column order matches
        :meth:`repro.synth.poi.POICategory.ordered` (resident, transport,
        office, entertainment).
    radius_km:
        The counting radius.
    """

    tower_ids: np.ndarray
    counts: np.ndarray
    radius_km: float

    def __post_init__(self) -> None:
        self.tower_ids = np.asarray(self.tower_ids, dtype=int)
        self.counts = np.asarray(self.counts, dtype=float)
        if self.counts.ndim != 2 or self.counts.shape[1] != len(POICategory.ordered()):
            raise ValueError(
                f"counts must have shape (n, {len(POICategory.ordered())}), got {self.counts.shape}"
            )
        if self.counts.shape[0] != self.tower_ids.shape[0]:
            raise ValueError("tower_ids must align with count rows")
        _check_radius(self.radius_km)

    @property
    def num_towers(self) -> int:
        """Number of towers profiled."""
        return int(self.counts.shape[0])

    def row_of(self, tower_id: int) -> int:
        """Return the row index of ``tower_id``."""
        matches = np.nonzero(self.tower_ids == tower_id)[0]
        if matches.size == 0:
            raise KeyError(f"tower {tower_id} not present in the POI profile")
        return int(matches[0])

    def counts_of(self, tower_id: int) -> dict[POICategory, float]:
        """Return the POI counts of one tower keyed by category."""
        row = self.counts[self.row_of(tower_id)]
        return {category: float(row[category.index]) for category in POICategory.ordered()}

    def dominant_category(self, tower_id: int) -> POICategory:
        """Return the POI category with the largest count around a tower."""
        row = self.counts[self.row_of(tower_id)]
        return POICategory.ordered()[int(np.argmax(row))]


def compute_poi_profiles(
    tower_ids: np.ndarray,
    tower_lats: np.ndarray,
    tower_lons: np.ndarray,
    pois: list[POI],
    *,
    radius_km: float = 0.2,
) -> POIProfile:
    """Count POIs of each category within ``radius_km`` of every tower.

    The default radius of 0.2 km matches the paper's 200 m.

    Only the POIs whose latitude lies within ``radius_km`` of a tower's (a
    band found by binary search over the sorted POI latitudes) are measured:
    a great circle is never shorter than the meridian arc between its end
    latitudes, so no POI outside the band is within the radius.  That bound
    needs latitudes in [-90, 90].  The band is widened by a relative 1e-6,
    for the rounding of the computed distance, and by 1e-12 degrees, for the
    rounding of the latitudes themselves (it decides at micrometre radii),
    so the counts are identical to measuring every POI.  NaN coordinates
    count nothing.
    """
    ids = np.asarray(tower_ids, dtype=int)
    lats = np.asarray(tower_lats, dtype=float)
    lons = np.asarray(tower_lons, dtype=float)
    if not (ids.shape == lats.shape == lons.shape):
        raise ValueError("tower_ids, tower_lats and tower_lons must have equal shapes")
    _check_radius(radius_km)

    poi_lats, poi_lons, poi_categories = poi_coordinate_arrays(pois)
    for what, values in (("tower", lats), ("POI", poi_lats)):
        outside = np.abs(values) > 90.0
        if np.any(outside):
            raise ValueError(
                f"{what} latitudes must lie in [-90, 90], got {values[outside][0]}"
            )
    order = np.argsort(poi_lats)
    poi_lats, poi_lons, poi_categories = poi_lats[order], poi_lons[order], poi_categories[order]
    half_band = np.degrees(radius_km / EARTH_RADIUS_KM) * (1.0 + 1e-6) + 1e-12
    starts = np.searchsorted(poi_lats, lats - half_band, side="left")
    stops = np.searchsorted(poi_lats, lats + half_band, side="right")

    num_categories = len(POICategory.ordered())
    counts = np.zeros((ids.size, num_categories))
    for row in np.nonzero(stops > starts)[0]:
        band = slice(starts[row], stops[row])
        distances = haversine_km(lats[row], lons[row], poi_lats[band], poi_lons[band])
        nearby = distances <= radius_km
        counts[row] = np.bincount(poi_categories[band][nearby], minlength=num_categories)
    return POIProfile(tower_ids=ids, counts=counts, radius_km=radius_km)


def _check_radius(radius_km: float) -> None:
    if not math.isfinite(radius_km) or radius_km <= 0:
        raise ValueError(f"radius_km must be positive and finite, got {radius_km}")


def normalized_poi_by_cluster(
    profile: POIProfile, labels: np.ndarray
) -> np.ndarray:
    """Return the averaged min-max-normalised POI table (Table 3 of the paper).

    Each POI category is min-max normalised *across towers* (to remove the
    large magnitude differences between categories), then averaged per
    cluster.  The result has shape ``(num_clusters, 4)`` with rows indexed by
    cluster label ``0 … k-1``.
    """
    label_array = np.asarray(labels, dtype=int)
    if label_array.shape[0] != profile.num_towers:
        raise ValueError("labels must have one entry per profiled tower")
    normalized = min_max_normalize(profile.counts, axis=0)
    unique = np.unique(label_array)
    table = np.zeros((unique.size, profile.counts.shape[1]))
    for index, label in enumerate(unique):
        table[index] = normalized[label_array == label].mean(axis=0)
    return table


def poi_share_by_cluster(profile: POIProfile, labels: np.ndarray) -> np.ndarray:
    """Return each cluster's POI composition as row-normalised shares (Fig. 9)."""
    table = normalized_poi_by_cluster(profile, labels)
    totals = table.sum(axis=1, keepdims=True)
    safe = np.where(totals > 0, totals, 1.0)
    return np.where(totals > 0, table / safe, 0.0)
