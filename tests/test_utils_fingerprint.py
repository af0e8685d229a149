"""Tests for repro.utils.fingerprint: the same digests, without array copies."""

import tracemalloc

import numpy as np
import pytest

from repro.utils.fingerprint import fingerprint, fingerprint_array
from oracles.fingerprint import fingerprint as tobytes_fingerprint

ARRAYS = {
    "0-d": np.array(2.5),
    "empty": np.zeros((0, 3)),
    "empty 1-d int": np.zeros(0, dtype=np.int64),
    "bool": np.array([True, False, True]),
    "S4": np.array([b"ab", b"cdef", b""], dtype="S4"),
    "transposed": np.arange(12.0).reshape(3, 4).T,
    "big-endian": np.arange(5, dtype=">i4"),
    "strided": np.arange(24.0).reshape(2, 3, 4)[:, ::2],
    "grid": np.random.default_rng(3).random((40, 144)),
}


@pytest.mark.parametrize("array", ARRAYS.values(), ids=ARRAYS.keys())
def test_digest_equals_the_tobytes_formula(array):
    assert fingerprint_array(array) == tobytes_fingerprint(array)
    assert fingerprint(array, "config", None, 3) == tobytes_fingerprint(array, "config", None, 3)


def test_a_contiguous_array_is_hashed_without_a_copy():
    grid = np.ones((1_000, 1_000))
    tracemalloc.start()
    try:
        fingerprint_array(grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < grid.nbytes / 100
