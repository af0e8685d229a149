"""Full-scan POI counting: the oracle for the latitude-band search."""

from __future__ import annotations

import numpy as np

from repro.synth.poi import POI, POICategory, poi_coordinate_arrays
from repro.utils.geometry import haversine_km


def full_scan_poi_counts(
    tower_lats: np.ndarray, tower_lons: np.ndarray, pois: list[POI], radius_km: float
) -> np.ndarray:
    """Count POIs per category within ``radius_km`` by measuring every POI."""
    lats = np.asarray(tower_lats, dtype=float)
    lons = np.asarray(tower_lons, dtype=float)
    poi_lats, poi_lons, poi_categories = poi_coordinate_arrays(pois)
    counts = np.zeros((lats.size, len(POICategory.ordered())))
    if poi_lats.size:
        for row in range(lats.size):
            distances = haversine_km(lats[row], lons[row], poi_lats, poi_lons)
            nearby = np.asarray(distances) <= radius_km
            if np.any(nearby):
                counts[row] = np.bincount(
                    poi_categories[nearby], minlength=len(POICategory.ordered())
                )
    return counts
