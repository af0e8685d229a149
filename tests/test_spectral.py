"""Tests for the spectral package (DFT, components, features, variance)."""

import numpy as np
import pytest
from oracles.spectral import fft_frequency_features

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
    dft_basis,
    dominant_frequencies,
    inverse_dft,
    phase_spectrum,
)
from repro.spectral.features import cluster_feature_statistics, extract_frequency_features
from repro.spectral.variance import (
    amplitude_variance_across_groups,
    most_discriminative_frequencies,
)
from repro.utils.timeutils import SLOTS_PER_DAY, SLOTS_PER_WEEK, TimeWindow
from repro.vectorize.normalize import NormalizationMethod, normalize_matrix


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

    @pytest.mark.parametrize("num_slots", [1, 7, 1008, 4032])
    def test_basis_gives_the_bins_of_the_full_dft(self, rng, num_slots):
        bins = tuple(sorted({1 % num_slots, num_slots // 7, num_slots // 2, num_slots - 1}))
        signals = rng.normal(size=(5, num_slots))
        products = signals @ dft_basis(bins, num_slots)
        spectrum = dft(signals)[:, list(bins)]
        assert np.allclose(products[:, : len(bins)], spectrum.real, rtol=0, atol=1e-11)
        assert np.allclose(products[:, len(bins) :], spectrum.imag, rtol=0, atol=1e-11)

    def test_basis_angles_are_reduced_exactly(self):
        # k·n reaches 225,792 at the paper's half-day bin; reduced mod N, the
        # angle of bin 56 at slot 72 is that of slot 0, exactly.
        basis = dft_basis((56,), 4032)
        assert basis[72, 0] == 1.0 and basis[72, 1] == 0.0
        with pytest.raises(ValueError):
            dft_basis((1,), 0)

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


def ratio_profile_rows(num_days, params):
    """Rows of ``base × weekly ratio × daily ratio``, one per parameter row.

    The ratios are looked up per slot and multiplied, the way emiproc's
    ``create_time_serie`` composes a daily and a weekly ratio profile:

    * daily ratio of slot-of-day ``s``:
      ``1 + a_day·cos(2π·s/144 + p_day) + a_half·cos(4π·s/144 + p_half)``;
    * weekly ratio of slot-of-week ``t``: ``1 + a_week·cos(2π·t/1008 + p_week)``,
      left out when the window holds no whole week.

    Over ``D`` days the three cosines sit exactly on the DFT bins ``D/7``,
    ``D`` and ``2·D``, and the products of the weekly with the daily terms
    fall on ``D ± D/7`` and ``2·D ± D/7``, which are none of them.  So bin
    ``k`` of a row is ``base·a_k·(N/2)·e^(i·p_k)``: amplitude ``base·a_k``
    and phase ``p_k``.  ``params`` columns: base, then ``(a, p)`` for week,
    day and half-day.
    """
    slots = np.arange(num_days * SLOTS_PER_DAY)
    of_day = 2 * np.pi * (slots % SLOTS_PER_DAY) / SLOTS_PER_DAY
    of_week = 2 * np.pi * (slots % SLOTS_PER_WEEK) / SLOTS_PER_WEEK
    rows = []
    for base, a_week, p_week, a_day, p_day, a_half, p_half in params:
        daily = 1 + a_day * np.cos(of_day + p_day) + a_half * np.cos(2 * of_day + p_half)
        weekly = 1 + a_week * np.cos(of_week + p_week) if num_days % 7 == 0 else 1.0
        rows.append(base * weekly * daily)
    return np.array(rows)


def assert_matches_the_fft(direct, fft, normalized):
    """Direct bins against the full FFT's, at 1e-12 of each bin's scale.

    A bin's rounding error (either algorithm's) is bounded relative to its
    row, not to the bin: the scale of a bin is its amplitude, or the row's
    largest normalised value when that is larger (an amplitude is at most
    twice it).  So a bin at least its row's size must agree to 1e-12
    relative in amplitude and 1e-12 rad in phase, and a bin far below its
    row, whose phase is ill-conditioned, to 1e-12 of the row.  Phases are
    compared wherever the amplitude exceeds 1e-9.
    """
    row_scale = np.abs(normalized).max(axis=1, keepdims=True) if normalized.size else 0.0
    scale = np.maximum(fft.amplitudes, row_scale)
    assert np.all(np.abs(direct.amplitudes - fft.amplitudes) <= 1e-12 * scale)
    shown = fft.amplitudes > 1e-9
    gap = np.abs(np.angle(np.exp(1j * (direct.phases - fft.phases))))
    assert np.all(gap[shown] <= 1e-12 * scale[shown] / fft.amplitudes[shown])


class TestDirectBins:
    """The three-bin direct DFT against an analytic oracle and the FFT."""

    @pytest.mark.parametrize("num_days", [5, 7, 14, 28])
    def test_recovers_the_amplitudes_and_phases_of_ratio_profiles(self, num_days):
        rng = np.random.default_rng(num_days)
        count = 8
        params = np.column_stack(
            [
                rng.uniform(1e2, 1e6, size=count),
                *(
                    column
                    for _ in range(3)
                    for column in (
                        rng.uniform(0.05, 0.3, size=count),
                        rng.uniform(-3.0, 3.0, size=count),
                    )
                ),
            ]
        )
        rows = ratio_profile_rows(num_days, params)
        components = principal_components_for_window(TimeWindow(num_days=num_days))
        features = extract_frequency_features(rows, np.arange(count), components)
        peaks = rows.max(axis=1)
        expected = {
            "week": (params[:, 0] * params[:, 1] / peaks, params[:, 2]),
            "day": (params[:, 0] * params[:, 3] / peaks, params[:, 4]),
            "half_day": (params[:, 0] * params[:, 5] / peaks, params[:, 6]),
        }
        names = ["day", "half_day"] if components.week is None else ["week", "day", "half_day"]
        assert features.amplitudes.shape == (count, len(names))
        for name in names:
            amplitudes, phases = expected[name]
            assert np.all(np.abs(features.amplitude(name) - amplitudes) <= 1e-12)
            assert np.all(np.abs(features.phase(name) - phases) <= 1e-12)

    @pytest.mark.parametrize("method", list(NormalizationMethod), ids=lambda m: m.value)
    @pytest.mark.parametrize("num_days", [7, 28])
    def test_random_rows_match_the_fft(self, method, num_days):
        rng = np.random.default_rng(2015 + num_days)
        components = principal_components_for_window(TimeWindow(num_days=num_days))
        grid = rng.lognormal(0.0, 1.5, size=(300, components.num_slots))
        grid[rng.choice(300, size=20, replace=False)] = 0.0  # idle towers
        grid[7] = 4.0  # a constant tower
        ids = np.arange(len(grid))
        direct = extract_frequency_features(grid, ids, components, normalization=method)
        fft = fft_frequency_features(grid, ids, components, normalization=method)
        assert_matches_the_fft(direct, fft, normalize_matrix(grid, method))

    @pytest.mark.parametrize("method", list(NormalizationMethod), ids=lambda m: m.value)
    def test_scenario_towers_match_the_fft(self, scenario, method):
        components = principal_components_for_window(scenario.window)
        grid = scenario.traffic.traffic.copy()
        grid[::9] = 0.0  # idle towers
        ids = scenario.traffic.tower_ids
        direct = extract_frequency_features(grid, ids, components, normalization=method)
        fft = fft_frequency_features(grid, ids, components, normalization=method)
        assert_matches_the_fft(direct, fft, normalize_matrix(grid, method))
        # No bin of a city tower is far below its row, so the plain bounds
        # hold too: 1e-12 relative, and 1e-12 rad above an amplitude of 1e-9.
        assert np.all(
            np.abs(direct.amplitudes - fft.amplitudes) <= 1e-12 * fft.amplitudes
        )
        shown = fft.amplitudes > 1e-9
        gap = np.abs(np.angle(np.exp(1j * (direct.phases - fft.phases))))
        assert np.all(gap[shown] <= 1e-12)

    @pytest.mark.parametrize("method", list(NormalizationMethod), ids=lambda m: m.value)
    def test_idle_and_constant_towers_have_zero_amplitude_and_phase(self, method):
        # As in the FFT, whose butterflies cancel a constant row exactly: the
        # row means come out before the product, so no rounding noise (with
        # a random phase) is left in the bins.
        components = principal_components_for_window(TimeWindow(num_days=7))
        grid = np.zeros((3, components.num_slots))
        grid[1] = 4.0
        features = extract_frequency_features(grid, np.arange(3), components, normalization=method)
        fft = fft_frequency_features(grid, np.arange(3), components, normalization=method)
        for values in (features.amplitudes, features.phases, fft.amplitudes, fft.phases):
            assert values.tobytes() == np.zeros_like(values).tobytes()  # +0.0, not -0.0

    def test_integer_grids_and_empty_grids(self):
        components = principal_components_for_window(TimeWindow(num_days=7))
        counts = np.arange(2 * components.num_slots).reshape(2, -1) % 144
        as_ints = extract_frequency_features(counts, [0, 1], components)
        as_floats = extract_frequency_features(counts.astype(float), [0, 1], components)
        assert as_ints.amplitudes.tobytes() == as_floats.amplitudes.tobytes()
        empty = extract_frequency_features(
            np.empty((0, components.num_slots)), np.empty(0, dtype=int), components
        )
        assert empty.amplitudes.shape == empty.phases.shape == (0, 3)


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
