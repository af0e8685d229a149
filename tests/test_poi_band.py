"""The bounded POI count equals the full scan of every POI.

``compute_poi_profiles`` measures only the POIs in a latitude band around
each tower and within its longitude bound.  These tests hold it to the full
scan in :mod:`oracles.poi_profile`: counts must be equal, not close,
including for POIs a rounding error away from the radius (due east and west
too), towers at the poles or the antimeridian, duplicates and NaN
coordinates.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.poi_profile import full_scan_poi_counts
from repro.geo.poi_profile import compute_poi_profiles
from repro.synth.poi import POI, POICategory
from repro.utils.geometry import EARTH_RADIUS_KM, haversine_km

RADII_KM = (0.05, 0.2, 1.0, 5.0)
#: Distances from a tower, as multiples of the radius, that sit on the edge.
EDGE_FACTORS = (1.0, 1 - 1e-15, 1 + 1e-15, 1 - 1e-12, 1 + 1e-12, 1 - 1e-9, 1 + 1e-9)
CATEGORIES = POICategory.ordered()

latitudes = st.one_of(
    st.floats(-90.0, 90.0),
    st.floats(89.99, 90.0),
    st.floats(-90.0, -89.99),
    st.sampled_from([90.0, -90.0, 0.0]),
)
longitudes = st.one_of(
    st.floats(-180.0, 180.0),
    st.floats(179.99, 180.0),
    st.floats(-180.0, -179.99),
)
#: Due north, due south, or a random bearing, in degrees.
bearings = st.one_of(st.sampled_from([0.0, 180.0]), st.floats(0.0, 360.0, exclude_max=True))


def destination(lat: float, lon: float, distance_km: float, bearing_deg: float):
    """Return the point ``distance_km`` from ``(lat, lon)`` along ``bearing_deg``."""
    phi, lam, theta = np.radians(lat), np.radians(lon), np.radians(bearing_deg)
    delta = distance_km / EARTH_RADIUS_KM
    phi2 = np.arcsin(
        np.sin(phi) * np.cos(delta) + np.cos(phi) * np.sin(delta) * np.cos(theta)
    )
    lam2 = lam + np.arctan2(
        np.sin(theta) * np.sin(delta) * np.cos(phi),
        np.cos(delta) - np.sin(phi) * np.sin(phi2),
    )
    lat2 = float(np.clip(np.degrees(phi2), -90.0, 90.0))
    return lat2, float((np.degrees(lam2) + 180.0) % 360.0 - 180.0)


def make_pois(points) -> list[POI]:
    return [
        POI(poi_id=i, category=CATEGORIES[category], lat=lat, lon=lon, region_id=0)
        for i, (lat, lon, category) in enumerate(points)
    ]


@st.composite
def cities(draw):
    """Towers, POIs on and around their radius, and the radius."""
    radius = draw(st.sampled_from(RADII_KM))
    towers = draw(st.lists(st.tuples(latitudes, longitudes), min_size=1, max_size=4))
    tower_lats = np.array([lat for lat, _ in towers])
    tower_lons = np.array([lon for _, lon in towers])
    points = []
    for lat, lon in towers:
        edge = draw(
            st.lists(
                st.tuples(st.sampled_from(EDGE_FACTORS), bearings, st.integers(0, 3)),
                max_size=10,
            )
        )
        for factor, bearing, category in edge:
            points.append((*destination(lat, lon, factor * radius, bearing), category))
        # A scatter inside and around the radius, placed by a drawn seed.
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        count = draw(st.integers(0, 20))
        for distance, bearing, category in zip(
            rng.uniform(0.0, 3.0 * radius, count),
            rng.uniform(0.0, 360.0, count),
            rng.integers(0, 4, count),
        ):
            points.append((*destination(lat, lon, distance, bearing), int(category)))
    if points and draw(st.booleans()):
        points += draw(st.lists(st.sampled_from(points), min_size=1, max_size=5))
    if draw(st.booleans()):
        # NaN coordinates: a POI with a NaN latitude, one with a NaN
        # longitude, and a tower with either.
        points += [(np.nan, float(tower_lons[0]), 0), (float(tower_lats[0]), np.nan, 1)]
        row = draw(st.integers(0, len(towers) - 1))
        if draw(st.booleans()):
            tower_lats[row] = np.nan
        else:
            tower_lons[row] = np.nan
    return tower_lats, tower_lons, make_pois(points), radius


@settings(max_examples=200, deadline=None)
@given(city=cities())
def test_band_counts_equal_the_full_scan(city):
    tower_lats, tower_lons, pois, radius = city
    profile = compute_poi_profiles(
        np.arange(tower_lats.size), tower_lats, tower_lons, pois, radius_km=radius
    )
    expected = full_scan_poi_counts(tower_lats, tower_lons, pois, radius)
    assert np.array_equal(profile.counts, expected)


def test_scenario_counts_equal_the_full_scan(scenario):
    lats, lons = scenario.city.tower_coordinates()
    profile = compute_poi_profiles(
        scenario.traffic.tower_ids, lats, lons, scenario.city.pois, radius_km=0.2
    )
    expected = full_scan_poi_counts(lats, lons, scenario.city.pois, 0.2)
    assert expected.sum() > 0
    assert np.array_equal(profile.counts, expected)


#: Tower latitudes from the equator to 0.001° from either pole.
EDGE_LATITUDES = (0.0, 30.0, -45.0, 60.0, -80.0, 89.0, -89.9, 89.99, -89.999, 89.999)
#: Tower longitudes on the antimeridian and 0.0001° either side of it.
EDGE_LONGITUDES = (0.0, 179.9999, -179.9999, 180.0, -180.0)
#: Due east and west, and a degree off either way.
EAST_WEST = (90.0, 270.0, 89.0, 91.0, 269.0, 271.0)


def east_west_edge_points(lat, lon, radius):
    """POIs east and west of ``(lat, lon)`` at ``radius`` × each edge factor,
    plus two well inside the radius."""
    return [
        (*destination(lat, lon, factor * radius, bearing), category % 4)
        for category, (factor, bearing) in enumerate(
            (factor, bearing)
            for factor in (0.5, 0.99, *EDGE_FACTORS)
            for bearing in EAST_WEST
        )
    ]


@pytest.mark.parametrize("radius", RADII_KM)
@pytest.mark.parametrize("lon", EDGE_LONGITUDES)
@pytest.mark.parametrize("lat", EDGE_LATITUDES)
def test_east_west_edges_equal_the_full_scan(lat, lon, radius):
    # The longitude bound is widest-reaching due east and west: POIs a
    # rounding error inside or outside the radius there, at every latitude
    # up to 0.001° from a pole and across ±180°, count as in the full scan.
    pois = make_pois(east_west_edge_points(lat, lon, radius))
    profile = compute_poi_profiles(
        np.array([0]), np.array([lat]), np.array([lon]), pois, radius_km=radius
    )
    expected = full_scan_poi_counts(np.array([lat]), np.array([lon]), pois, radius)
    assert expected.sum() > 0
    assert np.array_equal(profile.counts, expected)


def last_longitude_within(lat, lon, radius, sign):
    """Return the last double east (``sign`` +1) or west (-1) of ``lon`` on
    the parallel ``lat`` whose computed distance is within ``radius``, and
    the first one beyond it."""
    span = 3.0 * np.degrees(radius / EARTH_RADIUS_KM) / np.cos(np.radians(lat))
    inside, outside = lon, lon + sign * span
    while True:
        middle = 0.5 * (inside + outside)
        if middle in (inside, outside):
            return inside, outside
        if haversine_km(lat, lon, lat, middle) <= radius:
            inside = middle
        else:
            outside = middle


@pytest.mark.parametrize("radius", (1e-8, 1e-6, 1e-3, 0.2))
@pytest.mark.parametrize("lon", (0.0, 120.0, 179.99999, -179.99999))
@pytest.mark.parametrize("lat", (0.0, 1e-9, 30.0, 60.0, -89.0, 89.999))
def test_last_float_inside_the_radius_counts(lat, lon, radius):
    # POIs on the tower's parallel, one on the last double within the
    # computed radius and one on the first beyond it, east and west.  At
    # these points the longitude bound is tight: without its widening the
    # inner POI is dropped (at centimetre radii and below, where the
    # rounding of the longitudes themselves decides).
    points = []
    for sign in (1.0, -1.0):
        inside, outside = last_longitude_within(lat, lon, radius, sign)
        points += [(lat, inside, 0), (lat, outside, 1)]
    pois = make_pois(points)
    profile = compute_poi_profiles(
        np.array([0]), np.array([lat]), np.array([lon]), pois, radius_km=radius
    )
    expected = full_scan_poi_counts(np.array([lat]), np.array([lon]), pois, radius)
    assert expected[0, 0] == 2
    assert np.array_equal(profile.counts, expected)


@pytest.mark.parametrize("turns", (-2, -1, 1, 3))
@pytest.mark.parametrize("lat", (0.0, 60.0, -89.99))
def test_longitudes_outside_the_usual_range_count_as_in_the_full_scan(lat, turns):
    # POI longitudes whole turns away from the tower's: a difference near
    # 360° folds to near 0, one over 360° folds negative and is always
    # measured, so the counts still equal the full scan's.
    points = east_west_edge_points(lat, 179.9999, 0.2)
    pois = make_pois([(poi_lat, poi_lon + 360.0 * turns, c) for poi_lat, poi_lon, c in points])
    profile = compute_poi_profiles(
        np.array([0]), np.array([lat]), np.array([179.9999]), pois, radius_km=0.2
    )
    expected = full_scan_poi_counts(np.array([lat]), np.array([179.9999]), pois, 0.2)
    assert expected.sum() > 0
    assert np.array_equal(profile.counts, expected)


def test_bounds_measure_a_fraction_of_the_band(scenario):
    # The longitude bound is what makes the label stage cheap: on the
    # synthetic city it measures far fewer pairs than the latitude band
    # holds, yet never fewer than the POIs it counts.
    lats, lons = scenario.city.tower_coordinates()
    profile = compute_poi_profiles(
        scenario.traffic.tower_ids, lats, lons, scenario.city.pois, radius_km=0.2
    )
    poi_lats = np.array([poi.lat for poi in scenario.city.pois])
    half_band = np.degrees(0.2 / EARTH_RADIUS_KM)
    in_band = sum(int(np.sum(np.abs(poi_lats - lat) <= half_band)) for lat in lats)
    assert profile.counts.sum() <= profile.pairs_measured < in_band


def test_band_holds_at_a_micrometre_radius():
    # At a 10 µm radius the relative widening of the band is smaller than
    # the rounding of a latitude; this POI sits one ulp outside a band
    # widened by it alone, yet its computed distance is within the radius.
    lat, lon = -3.8234984494529414, -35.8595296168111
    pois = make_pois([(-3.823498449363009, lon, 0)])
    profile = compute_poi_profiles(
        np.array([0]), np.array([lat]), np.array([lon]), pois, radius_km=1e-8
    )
    expected = full_scan_poi_counts(np.array([lat]), np.array([lon]), pois, 1e-8)
    assert expected.sum() == 1
    assert np.array_equal(profile.counts, expected)


def test_no_pois_counts_nothing():
    profile = compute_poi_profiles(
        np.array([1, 2]), np.array([31.2, 90.0]), np.array([121.5, 0.0]), [], radius_km=0.2
    )
    assert np.array_equal(profile.counts, np.zeros((2, len(CATEGORIES))))


def test_nan_coordinates_count_nothing():
    pois = make_pois([(31.2, 121.5, 0), (np.nan, 121.5, 1), (31.2, np.nan, 2)])
    profile = compute_poi_profiles(
        np.arange(3),
        np.array([31.2, np.nan, 31.2]),
        np.array([121.5, 121.5, np.nan]),
        pois,
        radius_km=0.2,
    )
    assert np.array_equal(profile.counts, [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])


@pytest.mark.parametrize("where", ["tower", "POI"])
@pytest.mark.parametrize("lat", [90.5, -91.0, np.inf])
def test_latitude_outside_the_globe_is_rejected(where, lat):
    tower_lat = lat if where == "tower" else 0.0
    pois = make_pois([(lat if where == "POI" else 0.0, 0.0, 0)])
    with pytest.raises(ValueError, match=f"{where} latitudes must lie in"):
        compute_poi_profiles(
            np.array([0]), np.array([tower_lat]), np.array([0.0]), pois, radius_km=0.2
        )
