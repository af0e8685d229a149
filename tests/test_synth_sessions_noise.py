"""Tests for repro.synth.sessions and repro.synth.noise."""

import numpy as np
import pytest

from repro.ingest.batch import NETWORK_NAMES
from repro.synth.noise import CorruptionReport, LogCorruptionConfig, corrupt_batch
from repro.synth.regions import generate_regions
from repro.synth.sessions import SessionGenerationConfig, generate_session_batch
from repro.synth.towers import TowerPlacementConfig, place_towers
from repro.synth.users import UserPopulationConfig, generate_users
from repro.utils.timeutils import TimeWindow

COLUMNS = ("user_id", "tower_id", "start_s", "end_s", "bytes_used", "network")


def rows(batch, columns=COLUMNS):
    """The batch's rows as one structured array (comparable, sortable, unique-able)."""
    table = np.empty(len(batch), dtype=[(name, getattr(batch, name).dtype) for name in columns])
    for name in columns:
        table[name] = getattr(batch, name)
    return table


def assert_same_batch(a, b):
    for name in COLUMNS:
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name


@pytest.fixture(scope="module")
def city_bits():
    regions = generate_regions(rng=14)
    towers = place_towers(regions, TowerPlacementConfig(num_towers=12), rng=14)
    users = generate_users(towers, UserPopulationConfig(num_users=60), rng=14)
    return towers, users


@pytest.fixture(scope="module")
def batch(city_bits):
    towers, users = city_bits
    return generate_session_batch(
        towers,
        users,
        SessionGenerationConfig(window=TimeWindow(num_days=3), sessions_per_slot_scale=2.0),
        rng=14,
    )


class TestSessionGeneration:
    def test_records_not_empty(self, batch):
        assert len(batch) > 100

    def test_records_sorted_by_start(self, batch):
        assert np.all(np.diff(batch.start_s) >= 0)

    def test_records_within_window(self, batch):
        window = TimeWindow(num_days=3)
        assert np.all(batch.start_s >= 0)
        assert np.all(batch.start_s <= batch.end_s)
        assert np.all(batch.end_s <= window.num_seconds)

    def test_all_fields_valid(self, batch):
        assert np.all(batch.bytes_used >= 0)
        assert set(batch.network_labels().tolist()) == set(NETWORK_NAMES)

    def test_user_ids_belong_to_population(self, city_bits, batch):
        _, users = city_bits
        assert np.isin(batch.user_id, [user.user_id for user in users]).all()

    def test_tower_ids_belong_to_city(self, city_bits, batch):
        towers, _ = city_bits
        assert np.isin(batch.tower_id, [tower.tower_id for tower in towers]).all()

    def test_night_sessions_come_from_the_tower_residents(self, city_bits, batch):
        # Midnight to 4:00 is "home" time every day: a tower's sessions then
        # come from the users whose home anchor it is, when it has any.
        _, users = city_bits
        home_of = {user.user_id: user.home_tower for user in users}
        night = (batch.start_s % 86400) < 4 * 3600
        towers = batch.tower_id[night]
        homes = np.array([home_of[user] for user in batch.user_id[night].tolist()])
        has_residents = np.isin(towers, list(home_of.values()))
        assert has_residents.any()
        assert np.array_equal(homes[has_residents], towers[has_residents])

    def test_reproducible(self, city_bits):
        towers, users = city_bits
        cfg = SessionGenerationConfig(window=TimeWindow(num_days=1), sessions_per_slot_scale=1.0)
        a = generate_session_batch(towers, users, cfg, rng=2)
        b = generate_session_batch(towers, users, cfg, rng=2)
        assert len(a) > 0
        assert_same_batch(a, b)

    def test_empty_inputs_rejected(self, city_bits):
        towers, users = city_bits
        with pytest.raises(ValueError):
            generate_session_batch([], users, rng=0)
        with pytest.raises(ValueError):
            generate_session_batch(towers, [], rng=0)

    def test_night_quieter_than_day(self, batch):
        seconds_of_day = batch.start_s % 86400
        night = np.count_nonzero(seconds_of_day < 4 * 3600)
        day = np.count_nonzero((seconds_of_day >= 10 * 3600) & (seconds_of_day < 14 * 3600))
        assert day > night

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SessionGenerationConfig(lte_fraction=1.5)
        with pytest.raises(ValueError):
            SessionGenerationConfig(mean_bytes_per_session=0.0)


class TestCorruption:
    def test_report_counts_consistent(self, batch):
        sample = batch.take(np.arange(2000))
        corrupted, report = corrupt_batch(sample, rng=1)
        assert isinstance(report, CorruptionReport)
        assert report.num_input_records == len(sample)
        assert len(corrupted) == report.num_output_records

    def test_duplicates_are_exact_copies(self, batch):
        sample = batch.take(np.arange(2000))
        corrupted, report = corrupt_batch(
            sample, LogCorruptionConfig(duplicate_fraction=0.2, conflict_fraction=0.0), rng=2
        )
        assert report.num_duplicates_added > 0
        keys = rows(corrupted)
        assert len(keys) - np.unique(keys).size >= report.num_duplicates_added

    def test_conflicts_change_bytes_only(self, batch):
        sample = batch.take(np.arange(2000))
        corrupted, report = corrupt_batch(
            sample, LogCorruptionConfig(duplicate_fraction=0.0, conflict_fraction=0.3), rng=3
        )
        assert report.num_conflicts_added > 0
        _, group_sizes = np.unique(
            rows(corrupted, ("user_id", "tower_id", "start_s", "end_s", "network")),
            return_counts=True,
        )
        assert np.count_nonzero(group_sizes > 1) >= report.num_conflicts_added * 0.9
        # Every original record is still there, bytes untouched.
        assert np.isin(rows(sample), rows(corrupted)).all()

    def test_zero_rates_only_shuffle_the_records(self, batch):
        sample = batch.take(np.arange(500))
        corrupted, report = corrupt_batch(
            sample,
            LogCorruptionConfig(duplicate_fraction=0.0, conflict_fraction=0.0),
            rng=4,
        )
        assert report.num_output_records == len(sample) == len(corrupted)
        assert np.array_equal(np.sort(rows(corrupted)), np.sort(rows(sample)))
        assert not np.array_equal(corrupted.start_s, sample.start_s)

    def test_reproducible(self, batch):
        sample = batch.take(np.arange(500))
        a, _ = corrupt_batch(sample, rng=7)
        b, _ = corrupt_batch(sample, rng=7)
        assert_same_batch(a, b)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LogCorruptionConfig(duplicate_fraction=1.2)
        with pytest.raises(ValueError):
            LogCorruptionConfig(max_duplicates_per_record=0)
