"""Tests for the spectral package (DFT, components, features, variance)."""

import numpy as np
import pytest

from repro.spectral.components import (
    PrincipalComponents,
    principal_components_for_window,
    reconstruct_from_components,
    reconstruction_energy_loss,
    reconstruction_energy_loss_curve,
)
from repro.spectral.dft import (
    amplitude_spectrum,
    dft,
    dominant_frequencies,
    inverse_dft,
    phase_spectrum,
)
from repro.spectral.features import cluster_feature_statistics, extract_frequency_features
from repro.spectral.variance import (
    amplitude_variance_across_groups,
    most_discriminative_frequencies,
)
from repro.utils.timeutils import TimeWindow
from repro.vectorize.normalize import NormalizationMethod


def sinusoid(num_slots, cycles, amplitude=1.0, phase=0.0, offset=0.0):
    n = np.arange(num_slots)
    return offset + amplitude * np.cos(2 * np.pi * cycles * n / num_slots + phase)


class TestDft:
    def test_round_trip(self, rng):
        signal = rng.normal(size=256)
        assert np.allclose(inverse_dft(dft(signal)), signal)

    def test_amplitude_of_pure_tone(self):
        signal = sinusoid(512, cycles=5, amplitude=2.0)
        amplitude = amplitude_spectrum(signal)
        assert amplitude[5] == pytest.approx(2.0 * 512 / 2)
        # All other non-mirror bins are ~0.
        others = np.delete(amplitude, [0, 5, 512 - 5])
        assert np.all(others < 1e-9)

    def test_phase_of_pure_tone(self):
        signal = sinusoid(512, cycles=3, phase=1.0)
        assert phase_spectrum(signal)[3] == pytest.approx(1.0, abs=1e-9)

    def test_matrix_input(self, rng):
        matrix = rng.normal(size=(4, 64))
        spectra = dft(matrix)
        assert spectra.shape == (4, 64)
        assert np.allclose(spectra[2], dft(matrix[2]))

    def test_rejects_3d(self):
        with pytest.raises(ValueError):
            dft(np.zeros((2, 2, 2)))

    def test_dominant_frequencies(self):
        signal = sinusoid(512, 5, amplitude=3.0) + sinusoid(512, 20, amplitude=1.0)
        assert dominant_frequencies(signal, count=2).tolist() == [5, 20]

    def test_dominant_frequencies_validation(self):
        with pytest.raises(ValueError):
            dominant_frequencies(np.ones(16), count=0)
        with pytest.raises(ValueError):
            dominant_frequencies(np.ones((2, 8)))


class TestPrincipalComponents:
    def test_paper_window_indices(self):
        components = principal_components_for_window(TimeWindow(num_days=28))
        assert components.week == 4
        assert components.day == 28
        assert components.half_day == 56
        assert components.indices() == (4, 28, 56)

    def test_two_week_window(self):
        components = principal_components_for_window(TimeWindow(num_days=14))
        assert components.week == 2
        assert components.day == 14
        assert components.half_day == 28

    def test_short_window_has_no_week_component(self):
        components = principal_components_for_window(TimeWindow(num_days=3))
        assert components.week is None
        assert components.indices() == (3, 6)

    def test_retained_bins_include_mirrors_and_dc(self):
        components = PrincipalComponents(week=4, day=28, half_day=56, num_slots=4032)
        bins = set(components.retained_bins().tolist())
        assert {0, 4, 28, 56, 4032 - 4, 4032 - 28, 4032 - 56} == bins


class TestReconstruction:
    def test_band_limited_signal_is_reconstructed_exactly(self):
        window = TimeWindow(num_days=14)
        components = principal_components_for_window(window)
        n = window.num_slots
        signal = (
            5.0
            + sinusoid(n, components.week, 1.0)
            + sinusoid(n, components.day, 2.0, phase=0.3)
            + sinusoid(n, components.half_day, 0.7, phase=-1.0)
        )
        reconstructed = reconstruct_from_components(signal, components)
        assert np.allclose(reconstructed, signal, atol=1e-9)
        assert reconstruction_energy_loss(signal, components) < 1e-12

    def test_out_of_band_content_removed(self):
        window = TimeWindow(num_days=14)
        components = principal_components_for_window(window)
        n = window.num_slots
        in_band = sinusoid(n, components.day, 2.0)
        out_band = sinusoid(n, 97, 1.5)
        reconstructed = reconstruct_from_components(in_band + out_band, components)
        assert np.allclose(reconstructed, in_band, atol=1e-9)

    def test_matrix_reconstruction(self, rng):
        window = TimeWindow(num_days=7)
        components = principal_components_for_window(window)
        matrix = rng.normal(size=(3, window.num_slots))
        rec = reconstruct_from_components(matrix, components)
        assert rec.shape == matrix.shape

    def test_aggregate_scenario_traffic_loses_little_energy(self, scenario):
        # The paper reports < 6% energy loss for the aggregate traffic.
        components = principal_components_for_window(scenario.window)
        aggregate = scenario.traffic.aggregate()
        assert reconstruction_energy_loss(aggregate, components) < 0.10

    def test_length_mismatch_rejected(self):
        components = principal_components_for_window(TimeWindow(num_days=7))
        with pytest.raises(ValueError):
            reconstruct_from_components(np.ones(10), components)

    def test_loss_curve_is_decreasing(self, scenario):
        aggregate = scenario.traffic.aggregate()
        counts, losses = reconstruction_energy_loss_curve(aggregate, max_components=10)
        assert counts.shape == losses.shape == (10,)
        assert np.all(np.diff(losses) <= 1e-9)


class TestFrequencyFeatures:
    def test_shapes_and_lookup(self, scenario):
        components = principal_components_for_window(scenario.window)
        features = extract_frequency_features(
            scenario.traffic.traffic, scenario.traffic.tower_ids, components
        )
        assert features.amplitudes.shape == (scenario.traffic.num_towers, 3)
        assert features.phases.shape == features.amplitudes.shape
        tower_id = int(scenario.traffic.tower_ids[5])
        assert features.row_of(tower_id) == 5
        with pytest.raises(KeyError):
            features.row_of(987654)

    def test_amplitudes_bounded_for_max_normalisation(self, scenario):
        components = principal_components_for_window(scenario.window)
        features = extract_frequency_features(
            scenario.traffic.traffic,
            scenario.traffic.tower_ids,
            components,
            normalization=NormalizationMethod.MAX,
        )
        assert np.all(features.amplitudes >= 0)
        assert np.all(features.amplitudes <= 1.0 + 1e-9)

    def test_phases_in_range(self, scenario):
        components = principal_components_for_window(scenario.window)
        features = extract_frequency_features(
            scenario.traffic.traffic, scenario.traffic.tower_ids, components
        )
        assert np.all(features.phases <= np.pi + 1e-9)
        assert np.all(features.phases >= -np.pi - 1e-9)

    def test_feature_matrix_default_spec(self, scenario):
        components = principal_components_for_window(scenario.window)
        features = extract_frequency_features(
            scenario.traffic.traffic, scenario.traffic.tower_ids, components
        )
        matrix = features.feature_matrix()
        assert matrix.shape == (scenario.traffic.num_towers, 3)
        assert np.array_equal(matrix[:, 0], features.amplitude("day"))
        assert np.array_equal(matrix[:, 1], features.phase("day"))
        assert np.array_equal(matrix[:, 2], features.amplitude("half_day"))

    def test_unknown_component_rejected(self, scenario):
        components = principal_components_for_window(scenario.window)
        features = extract_frequency_features(
            scenario.traffic.traffic, scenario.traffic.tower_ids, components
        )
        with pytest.raises(KeyError):
            features.amplitude("fortnight")
        with pytest.raises(ValueError):
            features.feature_matrix((("magnitude", "day"),))

    def test_pure_tone_feature_extraction(self):
        window = TimeWindow(num_days=7)
        components = principal_components_for_window(window)
        n = window.num_slots
        signal = 10.0 + 4.0 * np.cos(2 * np.pi * components.day * np.arange(n) / n + 0.5)
        features = extract_frequency_features(
            signal[None, :], np.array([0]), components, normalization=NormalizationMethod.NONE
        )
        assert features.amplitude("day")[0] == pytest.approx(4.0)
        assert features.phase("day")[0] == pytest.approx(0.5)

    def test_cluster_statistics(self, scenario):
        components = principal_components_for_window(scenario.window)
        features = extract_frequency_features(
            scenario.traffic.traffic, scenario.traffic.tower_ids, components
        )
        labels = scenario.ground_truth_labels()
        stats = cluster_feature_statistics(features, labels)
        assert set(stats) == set(np.unique(labels).tolist())
        for per_component in stats.values():
            for name in ("week", "day", "half_day"):
                amplitude_mean, amplitude_std = per_component[name]["amplitude"]
                assert amplitude_std >= 0
                assert 0 <= amplitude_mean <= 1.5


class TestVariance:
    def test_principal_components_have_high_variance(self, scenario):
        labels = scenario.ground_truth_labels()
        series = {
            int(label): scenario.traffic.traffic[labels == label].sum(axis=0)
            for label in np.unique(labels)
        }
        top = most_discriminative_frequencies(series, count=3)
        components = principal_components_for_window(scenario.window)
        # The day and half-day components must be among the most
        # discriminative frequencies (the week component competes with noise
        # for short windows).
        assert components.day in top or components.half_day in top

    def test_variance_output_shapes(self, scenario):
        labels = scenario.ground_truth_labels()
        series = {
            int(label): scenario.traffic.traffic[labels == label].sum(axis=0)
            for label in np.unique(labels)
        }
        freqs, variances = amplitude_variance_across_groups(series, max_frequency=100)
        assert freqs.shape == variances.shape == (101,)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            amplitude_variance_across_groups({0: np.ones(10), 1: np.ones(12)})

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            amplitude_variance_across_groups({})
