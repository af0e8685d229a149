"""Tests for repro.ingest.density, repro.ingest.geocode and repro.ingest.preprocess."""

import numpy as np
import pytest

from repro.ingest.density import compute_density_map
from repro.ingest.geocode import geocode_stations
from repro.ingest.preprocess import preprocess_trace
from repro.ingest.records import BaseStationInfo
from repro.synth.geocoder import SyntheticGeocoder
from repro.utils.geometry import GridSpec


class TestDensityMap:
    def test_total_traffic_conserved(self):
        lats = np.array([31.1, 31.2, 31.3])
        lons = np.array([121.4, 121.5, 121.6])
        traffic = np.array([10.0, 20.0, 30.0])
        density = compute_density_map(lats, lons, traffic, num_rows=5, num_cols=5)
        cell_area = density.grid.cell_area_km2()
        assert density.density.sum() * cell_area == pytest.approx(60.0)
        assert density.total_traffic == 60.0

    def test_peak_density_at_heaviest_tower(self):
        lats = np.array([31.1, 31.3])
        lons = np.array([121.4, 121.6])
        traffic = np.array([1.0, 100.0])
        density = compute_density_map(lats, lons, traffic, num_rows=4, num_cols=4)
        row, col = density.hottest_cell()
        expected_row, expected_col = density.grid.cell_of(31.3, 121.6)
        assert (row, col) == (expected_row, expected_col)

    def test_normalized_in_unit_range(self):
        density = compute_density_map(
            np.array([31.1, 31.2]), np.array([121.4, 121.5]), np.array([5.0, 10.0])
        )
        normalized = density.normalized()
        assert normalized.max() == pytest.approx(1.0)
        assert normalized.min() >= 0.0

    def test_explicit_grid_used(self):
        grid = GridSpec(31.0, 31.5, 121.0, 122.0, 10, 10)
        density = compute_density_map(
            np.array([31.2]), np.array([121.5]), np.array([7.0]), grid=grid
        )
        assert density.grid is grid

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            compute_density_map(np.array([31.0]), np.array([121.0, 121.1]), np.array([1.0]))

    def test_negative_traffic_rejected(self):
        with pytest.raises(ValueError):
            compute_density_map(np.array([31.0]), np.array([121.0]), np.array([-1.0]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            compute_density_map(np.array([]), np.array([]), np.array([]))

    def test_nonzero_fraction(self):
        density = compute_density_map(
            np.array([31.1]), np.array([121.4]), np.array([5.0]), num_rows=10, num_cols=10
        )
        assert density.nonzero_fraction() == pytest.approx(0.01)


class TestGeocodeStations:
    def test_fills_missing_coordinates(self, scenario):
        towers = scenario.city.towers[:20]
        geocoder = SyntheticGeocoder.from_towers(towers)
        stations = [BaseStationInfo(t.tower_id, t.address) for t in towers]
        resolved, report = geocode_stations(stations, geocoder)
        assert report.num_resolved == len(towers)
        assert report.num_failed == 0
        assert all(station.is_geocoded for station in resolved)

    def test_unknown_addresses_reported_not_dropped(self, scenario):
        towers = scenario.city.towers[:5]
        geocoder = SyntheticGeocoder.from_towers(towers)
        stations = [BaseStationInfo(t.tower_id, t.address) for t in towers]
        stations.append(BaseStationInfo(tower_id=999, address="Unknown Road 1"))
        resolved, report = geocode_stations(stations, geocoder)
        assert len(resolved) == 6
        assert report.num_failed == 1
        assert report.failed_addresses == ("Unknown Road 1",)
        assert report.success_fraction == pytest.approx(5 / 6)

    def test_already_geocoded_pass_through(self):
        stations = [BaseStationInfo(tower_id=1, address="x", lat=31.0, lon=121.0)]
        geocoder = SyntheticGeocoder({})
        resolved, report = geocode_stations(stations, geocoder)
        assert resolved[0].lat == 31.0
        assert report.num_resolved == 1


class TestPreprocess:
    def test_end_to_end_on_session_scenario(self, session_scenario):
        towers = session_scenario.city.towers
        stations = [BaseStationInfo(t.tower_id, t.address) for t in towers]
        geocoder = SyntheticGeocoder.from_towers(towers)
        result = preprocess_trace(session_scenario.session_batch(), stations, geocoder)
        report = result.report
        # Everything the corruption step added must be cleaned away.
        corruption = session_scenario.corruption_report
        assert report.dedup.num_exact_duplicates_removed >= corruption.num_duplicates_added * 0.95
        assert report.dedup.num_conflict_groups > 0
        assert report.num_clean_records <= corruption.num_input_records
        assert report.geocoding.num_failed == 0
        assert result.density is not None
        assert result.density.total_traffic > 0

    def test_volume_close_to_clean_trace(self, session_scenario):
        towers = session_scenario.city.towers
        stations = [BaseStationInfo(t.tower_id, t.address) for t in towers]
        geocoder = SyntheticGeocoder.from_towers(towers)
        result = preprocess_trace(session_scenario.session_batch(), stations, geocoder)
        cleaned_volume = result.records.total_bytes
        corrupted_volume = session_scenario.session_batch().total_bytes
        # Cleaning must remove the duplicated volume: cleaned < corrupted.
        assert cleaned_volume < corrupted_volume

    def test_density_skipped_when_not_requested(self, session_scenario):
        towers = session_scenario.city.towers
        stations = [BaseStationInfo(t.tower_id, t.address) for t in towers]
        geocoder = SyntheticGeocoder.from_towers(towers)
        result = preprocess_trace(
            session_scenario.session_batch(), stations, geocoder, compute_density=False
        )
        assert result.density is None

    def test_without_geocoder_uses_existing_coordinates(self, session_scenario):
        towers = session_scenario.city.towers
        stations = [
            BaseStationInfo(t.tower_id, t.address, lat=t.lat, lon=t.lon) for t in towers
        ]
        result = preprocess_trace(session_scenario.session_batch().take(np.arange(1000)), stations, None)
        assert result.report.geocoding.num_failed == 0
        assert result.density is not None

    def test_station_by_id(self, session_scenario):
        towers = session_scenario.city.towers
        stations = [BaseStationInfo(t.tower_id, t.address) for t in towers]
        result = preprocess_trace(
            session_scenario.session_batch().take(np.arange(100)), stations, None,
            compute_density=False,
        )
        lookup = result.station_by_id()
        assert lookup[towers[0].tower_id].address == towers[0].address
