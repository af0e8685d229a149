"""Tests for repro.synth.traffic (profile-level generator)."""

import numpy as np
import pytest

from repro.synth.regions import RegionType, generate_regions
from repro.synth.towers import TowerPlacementConfig, place_towers
from repro.synth.traffic import (
    TowerTrafficMatrix,
    TrafficGenerationConfig,
    generate_tower_traffic,
)
from repro.utils.timeutils import SLOTS_PER_DAY, TimeWindow


@pytest.fixture(scope="module")
def towers():
    regions = generate_regions(rng=10)
    return place_towers(regions, TowerPlacementConfig(num_towers=80), rng=10)


@pytest.fixture(scope="module")
def traffic(towers):
    return generate_tower_traffic(
        towers, TrafficGenerationConfig(window=TimeWindow(num_days=14)), rng=10
    )


class TestTowerTrafficMatrix:
    def test_shape(self, traffic, towers):
        assert traffic.traffic.shape == (len(towers), 14 * SLOTS_PER_DAY)
        assert traffic.num_towers == len(towers)
        assert traffic.num_slots == 14 * SLOTS_PER_DAY

    def test_non_negative(self, traffic):
        assert np.all(traffic.traffic >= 0)

    def test_series_lookup(self, traffic):
        tower_id = int(traffic.tower_ids[3])
        assert np.array_equal(traffic.series(tower_id), traffic.traffic[3])

    def test_unknown_tower_raises(self, traffic):
        with pytest.raises(KeyError):
            traffic.series(10_000)

    def test_aggregate_equals_column_sum(self, traffic):
        assert np.allclose(traffic.aggregate(), traffic.traffic.sum(axis=0))

    def test_aggregate_daily_shape_and_total(self, traffic):
        daily = traffic.aggregate_daily()
        assert daily.shape == (14,)
        assert daily.sum() == pytest.approx(traffic.traffic.sum())

    def test_subset(self, traffic):
        subset = traffic.subset(np.array([0, 2, 4]))
        assert subset.num_towers == 3
        assert np.array_equal(subset.traffic[1], traffic.traffic[2])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_volume_names_tower_and_slot(self, value):
        # NaN slipped past the sign check and z-scored to an all-zero
        # (idle-looking) vector; inf did the same and left NaN amplitudes.
        window = TimeWindow(num_days=1)
        traffic = np.ones((3, window.num_slots))
        traffic[1, 17] = value
        with pytest.raises(ValueError) as info:
            TowerTrafficMatrix(
                tower_ids=np.array([40, 41, 42]), traffic=traffic, window=window
            )
        message = str(info.value)
        assert "tower 41 at slot 17" in message and "\n" not in message

    def test_shape_validation(self):
        window = TimeWindow(num_days=1)
        with pytest.raises(ValueError):
            TowerTrafficMatrix(
                tower_ids=np.array([0, 1]),
                traffic=np.zeros((2, 10)),
                window=window,
            )
        with pytest.raises(ValueError):
            TowerTrafficMatrix(
                tower_ids=np.array([0]),
                traffic=np.zeros((2, window.num_slots)),
                window=window,
            )
        with pytest.raises(ValueError):
            TowerTrafficMatrix(
                tower_ids=np.array([0, 1]),
                traffic=-np.ones((2, window.num_slots)),
                window=window,
            )


class TestGeneration:
    def test_reproducible(self, towers):
        cfg = TrafficGenerationConfig(window=TimeWindow(num_days=7))
        a = generate_tower_traffic(towers, cfg, rng=5)
        b = generate_tower_traffic(towers, cfg, rng=5)
        assert np.array_equal(a.traffic, b.traffic)

    def test_different_seeds_differ(self, towers):
        cfg = TrafficGenerationConfig(window=TimeWindow(num_days=7))
        a = generate_tower_traffic(towers, cfg, rng=5)
        b = generate_tower_traffic(towers, cfg, rng=6)
        assert not np.array_equal(a.traffic, b.traffic)

    def test_empty_towers_rejected(self):
        with pytest.raises(ValueError):
            generate_tower_traffic([], rng=0)

    def test_mean_scale_matches_amplitude(self, towers, traffic):
        # The weekly template has mean 1.0, so each tower's mean traffic per
        # slot should be close to its mean_amplitude.
        for row in range(0, len(towers), 13):
            tower = towers[row]
            observed = traffic.traffic[row].mean()
            assert observed == pytest.approx(tower.mean_amplitude, rel=0.25)

    def test_office_towers_quiet_at_night(self, towers, traffic):
        night = slice(2 * 6, 4 * 6)  # 02:00-04:00 of day 0 (a Monday)
        midday = slice(11 * 6, 13 * 6)
        for row, tower in enumerate(towers):
            if tower.region_type is RegionType.OFFICE:
                assert traffic.traffic[row, night].mean() < traffic.traffic[row, midday].mean()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrafficGenerationConfig(multiplicative_noise_std=0.0)
        with pytest.raises(ValueError):
            TrafficGenerationConfig(burst_probability_per_slot=1.5)
