"""Tests for repro.synth.users."""

import pytest

from repro.synth.regions import RegionType, generate_regions
from repro.synth.towers import TowerPlacementConfig, place_towers
from repro.synth.users import UserPopulationConfig, generate_users, users_by_anchor


@pytest.fixture(scope="module")
def towers():
    regions = generate_regions(rng=8)
    return place_towers(regions, TowerPlacementConfig(num_towers=120), rng=8)


@pytest.fixture(scope="module")
def users(towers):
    return generate_users(towers, UserPopulationConfig(num_users=600), rng=8)


class TestGeneration:
    def test_count(self, users):
        assert len(users) == 600

    def test_unique_ids(self, users):
        assert len({user.user_id for user in users}) == len(users)

    def test_anchor_towers_exist(self, towers, users):
        tower_ids = {tower.tower_id for tower in towers}
        for user in users[:100]:
            assert set(user.anchors().values()) <= tower_ids

    def test_positive_activity(self, users):
        assert all(user.activity_level > 0 for user in users)

    def test_reproducible(self, towers):
        a = generate_users(towers, UserPopulationConfig(num_users=50), rng=1)
        b = generate_users(towers, UserPopulationConfig(num_users=50), rng=1)
        assert [u.home_tower for u in a] == [u.home_tower for u in b]

    def test_empty_towers_rejected(self):
        with pytest.raises(ValueError):
            generate_users([], rng=0)

    def test_home_anchors_prefer_residential(self, towers, users):
        by_id = {tower.tower_id: tower for tower in towers}
        type_counts = {rt: 0 for rt in RegionType.ordered()}
        tower_counts = {rt: 0 for rt in RegionType.ordered()}
        for tower in towers:
            tower_counts[tower.region_type] += 1
        for user in users:
            type_counts[by_id[user.home_tower].region_type] += 1
        # Per-tower home rate should be higher in residential than in office areas.
        resident_rate = type_counts[RegionType.RESIDENT] / max(tower_counts[RegionType.RESIDENT], 1)
        office_rate = type_counts[RegionType.OFFICE] / max(tower_counts[RegionType.OFFICE], 1)
        assert resident_rate > office_rate


class TestAnchorsGrouping:
    def test_groups_cover_all_users(self, users):
        groups = users_by_anchor(users, "home")
        assert sum(len(group) for group in groups.values()) == len(users)

    def test_invalid_role_rejected(self, users):
        with pytest.raises(ValueError):
            users_by_anchor(users, "vacation")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            UserPopulationConfig(num_users=0)
