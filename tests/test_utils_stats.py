"""Tests for repro.utils.stats."""

import numpy as np
import pytest
from oracles.zscore import whole_array_zscore

from repro.utils.stats import (
    BLOCK_ELEMENTS,
    describe,
    energy,
    min_max_normalize,
    pearson_correlation,
    relative_energy_loss,
    row_blocks,
    running_mean,
    safe_ratio,
    zscore_normalize,
)


def _rows_at_the_threshold(eps: float = 1e-12) -> np.ndarray:
    """Rows whose standard deviation sits on either side of, and at,
    ``eps · max(|mean|, 1)``."""
    rows = []
    for mean in (0.0, 1.0, 1e6):
        threshold = eps * max(abs(mean), 1.0)
        for factor in (0.5, 1.0 - 1e-6, 1.0, 1.0 + 1e-6, 2.0):
            spread = threshold * factor
            rows.append(mean + spread * np.array([-1.0, 1.0, -1.0, 1.0]))
    return np.array(rows)


class TestDescribe:
    def test_basic_statistics(self):
        stats = describe(np.array([1.0, 2.0, 3.0, 4.0]))
        assert stats.count == 4
        assert stats.mean == pytest.approx(2.5)
        assert stats.minimum == 1.0
        assert stats.maximum == 4.0
        assert stats.median == pytest.approx(2.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            describe(np.array([]))

    def test_as_dict_round_trip(self):
        stats = describe(np.array([5.0, 5.0]))
        d = stats.as_dict()
        assert d["mean"] == 5.0
        assert d["std"] == 0.0


class TestZscore:
    def test_zero_mean_unit_std(self):
        out = zscore_normalize(np.array([1.0, 2.0, 3.0, 4.0]))
        assert np.mean(out) == pytest.approx(0.0, abs=1e-12)
        assert np.std(out) == pytest.approx(1.0)

    def test_constant_vector_maps_to_zeros(self):
        out = zscore_normalize(np.full(10, 7.0))
        assert np.all(out == 0.0)

    def test_rowwise_normalisation(self):
        matrix = np.array([[1.0, 2.0, 3.0], [10.0, 10.0, 10.0]])
        out = zscore_normalize(matrix, axis=1)
        assert np.std(out[0]) == pytest.approx(1.0)
        assert np.all(out[1] == 0.0)

    @pytest.mark.parametrize(
        "shape",
        [(1, 1008), (1200, 1), (1, 1), (70, 1008), (3, 4032), (2, BLOCK_ELEMENTS + 5), (13,)],
        ids=str,
    )
    @pytest.mark.parametrize("axis", [-1, 0])
    def test_bits_equal_the_whole_array_expression(self, rng, shape, axis):
        values = rng.lognormal(3.0, 2.0, size=shape)
        values[::7] = 5.0  # constant rows (or columns)
        expected = whole_array_zscore(values, axis=axis)
        assert zscore_normalize(values, axis=axis).tobytes() == expected.tobytes()

    def test_bits_at_the_constant_row_threshold(self):
        rows = _rows_at_the_threshold()
        expected = whole_array_zscore(rows, axis=1)
        # Both sides of the threshold are present, so the cut is exercised.
        assert 0 < np.count_nonzero(expected.any(axis=1)) < len(rows)
        assert zscore_normalize(rows, axis=1).tobytes() == expected.tobytes()

    def test_bits_of_non_finite_rows_and_a_middle_axis(self, rng):
        values = rng.normal(size=(4, 5, 6))
        values[0, 1, 2] = np.nan
        values[1, 0, 3] = np.inf
        for axis in (0, 1, 2):
            with np.errstate(invalid="ignore"):
                expected = whole_array_zscore(values, axis=axis)
                actual = zscore_normalize(values, axis=axis)
            assert actual.tobytes() == expected.tobytes()

    def test_leaves_a_read_only_input_alone(self, rng):
        values = rng.normal(size=(5, 9))
        values.flags.writeable = False
        before = values.copy()
        out = zscore_normalize(values, axis=1)
        assert out.flags.writeable and not np.shares_memory(out, values)
        assert np.array_equal(values, before)


class TestRowBlocks:
    @pytest.mark.parametrize(
        "num_rows, row_length", [(0, 10), (1, 10), (100, 1008), (5, BLOCK_ELEMENTS * 3), (7, 0)]
    )
    def test_blocks_cover_the_rows_in_order_within_the_budget(self, num_rows, row_length):
        blocks = list(row_blocks(num_rows, row_length))
        covered = [row for block in blocks for row in range(block.start, block.stop)]
        assert covered == list(range(num_rows))
        for block in blocks:
            rows = block.stop - block.start
            assert rows == 1 or rows * row_length <= BLOCK_ELEMENTS


class TestMinMax:
    def test_range_is_zero_one(self):
        out = min_max_normalize(np.array([2.0, 4.0, 6.0]))
        assert out[0] == 0.0
        assert out[-1] == 1.0

    def test_constant_maps_to_zeros(self):
        out = min_max_normalize(np.full(5, 3.0))
        assert np.all(out == 0.0)

    def test_columnwise(self):
        matrix = np.array([[0.0, 10.0], [1.0, 20.0]])
        out = min_max_normalize(matrix, axis=0)
        assert np.array_equal(out, np.array([[0.0, 0.0], [1.0, 1.0]]))


class TestSafeRatio:
    def test_normal_division(self):
        assert safe_ratio(6.0, 3.0) == 2.0

    def test_zero_denominator_returns_default(self):
        assert safe_ratio(1.0, 0.0) == float("inf")
        assert safe_ratio(1.0, 0.0, default=-1.0) == -1.0

    def test_zero_over_zero_is_zero(self):
        assert safe_ratio(0.0, 0.0) == 0.0


class TestRunningMean:
    def test_window_one_is_identity(self):
        values = np.array([1.0, 5.0, 3.0])
        assert np.array_equal(running_mean(values, 1), values)

    def test_constant_preserved(self):
        assert np.allclose(running_mean(np.full(10, 2.0), 3), 2.0)

    def test_smooths_spike(self):
        values = np.zeros(11)
        values[5] = 9.0
        smoothed = running_mean(values, 3)
        assert smoothed[5] == pytest.approx(3.0)

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            running_mean(np.ones(3), 0)


class TestEnergy:
    def test_energy_value(self):
        assert energy(np.array([3.0, 4.0])) == 25.0

    def test_relative_energy_loss_zero_for_identical(self):
        signal = np.array([1.0, 2.0, 3.0])
        assert relative_energy_loss(signal, signal) == 0.0

    def test_relative_energy_loss_value(self):
        original = np.array([1.0, 1.0])
        halved = np.array([1.0, 0.0])
        assert relative_energy_loss(original, halved) == pytest.approx(0.5)

    def test_relative_energy_loss_shape_mismatch(self):
        with pytest.raises(ValueError):
            relative_energy_loss(np.ones(3), np.ones(4))

    def test_relative_energy_loss_zero_signal(self):
        assert relative_energy_loss(np.zeros(5), np.zeros(5)) == 0.0


class TestPearson:
    def test_perfect_positive(self):
        x = np.arange(10.0)
        assert pearson_correlation(x, 2 * x + 1) == pytest.approx(1.0)

    def test_perfect_negative(self):
        x = np.arange(10.0)
        assert pearson_correlation(x, -x) == pytest.approx(-1.0)

    def test_constant_input_returns_zero(self):
        assert pearson_correlation(np.ones(5), np.arange(5.0)) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            pearson_correlation(np.ones(3), np.ones(4))

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            pearson_correlation(np.array([1.0]), np.array([2.0]))
