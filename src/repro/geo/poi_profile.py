"""Per-tower POI profiles and per-cluster POI statistics.

The paper measures the number of the four main POI types (resident,
transport, office, entertainment) within 200 m of each cell tower and uses
the distribution to label and validate the traffic-pattern clusters
(Tables 2–3, Fig. 9).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    #: Tower–POI distances :func:`compute_poi_profiles` computed for this
    #: profile (observability only — a trace-span counter, never persisted
    #: or compared; 0 for a profile built any other way).
    pairs_measured: int = field(default=0, init=False, repr=False, compare=False)

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

    Only the POIs that pass two exact bounds are measured, so the counts are
    identical to measuring every POI:

    * **latitude** — a great circle is never shorter than the meridian arc
      between its end latitudes, so only the POIs in a band of ``radius_km``
      around the tower's latitude can count (two binary searches over the
      sorted POI latitudes; needs latitudes in [-90, 90]);
    * **longitude** — hav θ ≥ cos φ₁·cos φ₂·hav Δλ, and every POI in the
      band has cos φ₂ ≥ cos(min(|φ₁| + band, 90°)), so a POI with
      hav Δλ > hav(r/R) / (cos φ₁·cos φ₂,min) lies beyond the radius (Δλ
      folded across the antimeridian; no bound where the ratio reaches 1
      or the denominator is 0).

    Both are widened by a relative 1e-6, for the rounding of the computed
    distance, and by 1e-12 degrees, for the rounding of the coordinates
    (it decides at micrometre radii); the longitude bound also by 1e-15 of
    the longitudes' magnitude.  NaN coordinates count nothing.  The
    surviving pairs are measured in blocks of ``_PAIRS_PER_BLOCK``, one
    haversine call each, and counted in :attr:`POIProfile.pairs_measured`.
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
    band_sizes = np.searchsorted(poi_lats, lats + half_band, side="right") - starts
    half_widths = _longitude_half_widths(lats, lons, poi_lons, half_band, radius_km)

    num_categories = len(POICategory.ordered())
    counts = np.zeros(ids.size * num_categories, dtype=np.int64)
    pairs_measured = 0
    ends = np.cumsum(band_sizes)
    total = int(ends[-1]) if ends.size else 0
    firsts = np.searchsorted(ends, np.arange(0, total, _PAIRS_PER_BLOCK), side="right")
    for first, stop in zip(firsts, [*firsts[1:], ids.size]):
        sizes = band_sizes[first:stop]
        tower = np.repeat(np.arange(first, stop), sizes)
        # POI index of each pair: the tower's band start plus the pair's
        # position within the band.
        offsets = np.cumsum(sizes) - sizes - starts[first:stop]
        poi = np.arange(tower.size) - np.repeat(offsets, sizes)
        # Folded across the antimeridian; a difference over 360° (longitudes
        # outside ±180°) folds negative and is always measured.
        delta = np.abs(poi_lons[poi] - lons[tower])
        near = np.minimum(delta, 360.0 - delta) <= half_widths[tower]
        tower, poi = tower[near], poi[near]
        pairs_measured += tower.size
        distances = haversine_km(lats[tower], lons[tower], poi_lats[poi], poi_lons[poi])
        hit = distances <= radius_km
        counts += np.bincount(
            tower[hit] * num_categories + poi_categories[poi[hit]],
            minlength=counts.size,
        )
    profile = POIProfile(
        tower_ids=ids,
        counts=counts.reshape(ids.size, num_categories),
        radius_km=radius_km,
    )
    profile.pairs_measured = pairs_measured
    return profile


#: Tower–POI pairs measured per haversine call (~10 MB of pair arrays).
_PAIRS_PER_BLOCK = 1 << 18


def _longitude_half_widths(
    lats: np.ndarray,
    lons: np.ndarray,
    poi_lons: np.ndarray,
    half_band: float,
    radius_km: float,
) -> np.ndarray:
    """Return, per tower, the longitude difference in degrees beyond which no
    POI of its latitude band is within ``radius_km`` (+inf: no bound).

    ``cos φ₁`` is computed exactly as :func:`haversine_km` computes it, so
    the bound holds for the computed distances, not only the exact ones.
    """
    cos_tower = np.cos(np.radians(lats))
    cos_edge = np.cos(np.radians(np.minimum(np.abs(lats) + half_band, 90.0)))
    denominator = cos_tower * cos_edge
    hav_radius = math.sin(min(radius_km / EARTH_RADIUS_KM, math.pi) / 2.0) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = hav_radius / denominator
    bounded = (denominator > 0) & (ratio < 1.0)
    widths = np.degrees(2.0 * np.arcsin(np.sqrt(np.where(bounded, ratio, 0.0))))
    finite = np.isfinite(poi_lons)
    largest = float(np.max(np.abs(poi_lons[finite]), initial=0.0))
    margins = 1e-12 + 1e-15 * (np.abs(lons) + largest)
    return np.where(bounded, widths * (1.0 + 1e-6) + margins, np.inf)


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
