"""Tests for repro.synth.geocoder, repro.synth.city and repro.synth.scenario."""

import numpy as np
import pytest

from repro.synth.city import CityConfig, build_city
from repro.synth.geocoder import GeocodingError, SyntheticGeocoder
from repro.synth.regions import RegionType
from repro.synth.scenario import ScenarioConfig, generate_scenario
from repro.synth.towers import TowerPlacementConfig
from repro.utils.geometry import GridSpec


@pytest.fixture(scope="module")
def city():
    return build_city(CityConfig(towers=TowerPlacementConfig(num_towers=100), seed=5))


class TestGeocoder:
    def test_from_towers_resolves_every_address(self, city):
        geocoder = SyntheticGeocoder.from_towers(city.towers)
        tower = city.towers[0]
        result = geocoder.geocode(tower.address)
        assert result.lat == tower.lat
        assert result.lon == tower.lon

    def test_unknown_address_raises(self, city):
        geocoder = SyntheticGeocoder.from_towers(city.towers)
        with pytest.raises(GeocodingError):
            geocoder.geocode("Nowhere Street 1")

    def test_cache_prevents_repeat_lookups(self, city):
        geocoder = SyntheticGeocoder.from_towers(city.towers)
        address = city.towers[0].address
        geocoder.geocode(address)
        geocoder.geocode(address)
        assert geocoder.lookup_count == 1
        assert geocoder.cache_hits == 1

    def test_transient_failures_and_retries(self, city):
        geocoder = SyntheticGeocoder.from_towers(city.towers, failure_rate=0.99, rng=1)
        address = city.towers[1].address
        # A single call will almost surely fail...
        with pytest.raises(GeocodingError):
            for _ in range(5):
                geocoder.geocode(address)
        # ...but retries eventually succeed (or exhaust attempts cleanly).
        resolved = None
        for _ in range(50):
            try:
                resolved = geocoder.geocode_with_retries(address, max_attempts=10)
                break
            except GeocodingError:
                continue
        assert resolved is not None

    def test_retry_of_unknown_address_fails_fast(self, city):
        geocoder = SyntheticGeocoder.from_towers(city.towers)
        with pytest.raises(GeocodingError):
            geocoder.geocode_with_retries("Unknown 42", max_attempts=3)

    def test_contains_and_len(self, city):
        geocoder = SyntheticGeocoder.from_towers(city.towers)
        assert len(geocoder) == len({t.address for t in city.towers})
        assert city.towers[0].address in geocoder

    def test_invalid_failure_rate(self):
        with pytest.raises(ValueError):
            SyntheticGeocoder({}, failure_rate=2.0)


class TestCityModel:
    def test_counts(self, city):
        assert city.num_towers == 100
        assert city.num_regions > 0
        assert city.num_pois > 0

    def test_tower_and_region_lookup(self, city):
        tower = city.towers[5]
        assert city.tower(tower.tower_id) is tower
        assert city.region_of_tower(tower.tower_id).region_id == tower.region_id

    def test_unknown_ids_raise(self, city):
        with pytest.raises(KeyError):
            city.tower(99_999)
        with pytest.raises(KeyError):
            city.region(99_999)

    def test_ground_truth_labels_align(self, city):
        labels = city.ground_truth_labels()
        assert labels.shape == (city.num_towers,)
        assert labels[5] == city.towers[5].region_type.index

    def test_towers_of_type(self, city):
        offices = city.towers_of_type(RegionType.OFFICE)
        assert all(t.region_type is RegionType.OFFICE for t in offices)

    def test_type_fractions_sum_to_one(self, city):
        fractions = city.type_fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_default_grid_covers_towers(self, city):
        grid = city.default_grid()
        assert isinstance(grid, GridSpec)
        lats, lons = city.tower_coordinates()
        counts = grid.accumulate(lats, lons)
        assert counts.sum() == city.num_towers

    def test_deterministic_given_seed(self):
        a = build_city(CityConfig(towers=TowerPlacementConfig(num_towers=30), seed=9))
        b = build_city(CityConfig(towers=TowerPlacementConfig(num_towers=30), seed=9))
        assert [t.lat for t in a.towers] == [t.lat for t in b.towers]


class TestScenario:
    def test_scenario_shapes(self, scenario):
        assert scenario.city.num_towers == scenario.traffic.num_towers == 90
        assert len(scenario.users) == 400
        assert scenario.window.num_days == 14

    def test_ground_truth_alignment(self, scenario):
        labels = scenario.ground_truth_labels()
        assert labels.shape == (scenario.traffic.num_towers,)
        for row in range(0, scenario.traffic.num_towers, 17):
            tower_id = int(scenario.traffic.tower_ids[row])
            assert labels[row] == scenario.city.tower(tower_id).region_type.index

    def test_profile_only_scenario_has_no_records(self, scenario):
        assert len(scenario.session_batch()) == 0
        assert scenario.corruption_report is None

    def test_session_scenario_has_records_and_report(self, session_scenario):
        assert len(session_scenario.session_batch()) > 0
        assert session_scenario.corruption_report is not None
        assert session_scenario.corruption_report.num_output_records == len(
            session_scenario.session_batch()
        )

    def test_the_removed_scalar_session_generator_is_rejected(self):
        with pytest.raises(ValueError, match="scalar session generator"):
            ScenarioConfig(sessions_as_batch=False)
        assert ScenarioConfig(sessions_as_batch=True).sessions_as_batch

    def test_scenario_reproducible(self):
        a = generate_scenario(ScenarioConfig(num_towers=20, num_users=50, num_days=7, seed=4))
        b = generate_scenario(ScenarioConfig(num_towers=20, num_users=50, num_days=7, seed=4))
        assert np.array_equal(a.traffic.traffic, b.traffic.traffic)

    def test_all_five_types_present(self, scenario):
        assert set(np.unique(scenario.ground_truth_labels()).tolist()) == {0, 1, 2, 3, 4}
