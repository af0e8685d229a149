"""Tests for repro.utils.fingerprint: the same digests, without array copies,
and one hash pass over a towers × slots grid per fit."""

import hashlib
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import repro.utils.fingerprint as fingerprint_module
from oracles.fingerprint import fingerprint as tobytes_fingerprint
from repro.core.config import ModelConfig
from repro.core.model import TrafficPatternModel
from repro.ingest.batch import RecordBatch
from repro.io.persist import read_manifest
from repro.synth.traffic import TowerTrafficMatrix
from repro.utils.fingerprint import fingerprint, fingerprint_array
from repro.utils.timeutils import TimeWindow

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


# ----------------------------------------------------------------------
# How often a fit, a save and a load hash a towers × slots grid
# ----------------------------------------------------------------------

NUM_TOWERS = 30
WINDOW = TimeWindow(num_days=2)


class _CountingSha256:
    """``hashlib.sha256`` that logs every update at least one grid in size."""

    def __init__(self, log: list, grid_bytes: int) -> None:
        self._digest = hashlib.sha256()
        self._log = log
        self._grid_bytes = grid_bytes

    def update(self, data) -> None:
        if memoryview(data).nbytes >= self._grid_bytes:
            self._log.append(memoryview(data).nbytes)
        self._digest.update(data)

    def hexdigest(self) -> str:
        return self._digest.hexdigest()


@pytest.fixture
def grid_passes(monkeypatch):
    """The list of grid-sized hash passes made since the test started."""
    log: list = []
    grid_bytes = NUM_TOWERS * WINDOW.num_slots * 8
    monkeypatch.setattr(
        fingerprint_module,
        "hashlib",
        SimpleNamespace(sha256=lambda: _CountingSha256(log, grid_bytes)),
    )
    return log


def _records(seed: int, n: int = 4_000) -> RecordBatch:
    rng = np.random.default_rng(seed)
    starts = rng.uniform(0, WINDOW.num_seconds - 600, size=n)
    return RecordBatch(
        user_id=rng.integers(0, 200, size=n),
        tower_id=rng.integers(0, NUM_TOWERS, size=n),
        start_s=starts,
        end_s=starts + rng.uniform(0, 600, size=n),
        bytes_used=rng.lognormal(9.0, 1.0, size=n),
        network=np.zeros(n, dtype=np.uint8),
    )


def _streamed_model() -> TrafficPatternModel:
    model = TrafficPatternModel(ModelConfig(num_clusters=3))
    model.fit_batches([_records(1)], WINDOW, list(range(NUM_TOWERS)))
    return model


class TestGridHashPasses:
    def test_a_matrix_fit_hashes_its_grid_once(self, grid_passes):
        grid = np.random.default_rng(4).random((NUM_TOWERS, WINDOW.num_slots))
        matrix = TowerTrafficMatrix(np.arange(NUM_TOWERS), grid, WINDOW)
        result = TrafficPatternModel(ModelConfig(num_clusters=3)).fit(matrix)
        assert len(grid_passes) == 1
        assert {"vectorize", "cluster", "tune", "spectral"} <= set(
            result.extras["stage_fingerprints"]
        )
        # The caller's grid stays writable, so a save hashes it again.
        assert grid.flags.writeable

    def test_a_streamed_fit_hashes_its_grid_once_and_its_save_reuses_the_digest(
        self, grid_passes, tmp_path
    ):
        model = _streamed_model()
        assert len(grid_passes) == 1
        model.save(tmp_path / "bundle")
        assert len(grid_passes) == 2  # the vectors; the grid's digest is the fit's
        manifest = read_manifest(tmp_path / "bundle")
        assert manifest["arrays"]["raw.traffic"]["sha256"] == fingerprint_array(
            model.result.vectorized.raw.traffic
        )

    def test_a_save_hashes_a_writable_grid_and_the_vectors(self, grid_passes, tmp_path):
        grid = np.random.default_rng(4).random((NUM_TOWERS, WINDOW.num_slots))
        model = TrafficPatternModel(ModelConfig(num_clusters=3))
        model.fit(TowerTrafficMatrix(np.arange(NUM_TOWERS), grid, WINDOW))
        grid_passes.clear()
        model.save(tmp_path / "bundle")
        assert len(grid_passes) == 2

    def test_a_load_verifies_both_grids(self, grid_passes, tmp_path):
        bundle = _streamed_model().save(tmp_path / "bundle")
        grid_passes.clear()
        TrafficPatternModel.load(bundle)
        assert len(grid_passes) == 2

    def test_an_update_hashes_the_merged_grid_once(self, grid_passes, tmp_path):
        model = TrafficPatternModel.load(_streamed_model().save(tmp_path / "bundle"))
        grid_passes.clear()
        model.update(_records(2, n=500))
        assert len(grid_passes) == 1

    def test_a_grid_changed_after_the_fit_is_hashed_again_on_save(self, tmp_path):
        model = _streamed_model()
        grid = model.result.vectorized.raw.traffic
        with pytest.raises(ValueError, match="read-only"):
            grid[0, 0] = 1.0
        grid.flags.writeable = True
        grid[0, 0] += 1.0
        bundle = model.save(tmp_path / "bundle")
        assert np.array_equal(TrafficPatternModel.load(bundle).result.vectorized.raw.traffic, grid)


class TestTrafficMatrixDigest:
    def test_a_read_only_grid_is_hashed_once(self, grid_passes):
        grid = np.random.default_rng(6).random((NUM_TOWERS, WINDOW.num_slots))
        grid.flags.writeable = False
        matrix = TowerTrafficMatrix(np.arange(NUM_TOWERS), grid, WINDOW)
        assert matrix.digest() == matrix.digest() == tobytes_fingerprint(grid)
        assert len(grid_passes) == 1

    def test_a_writable_grid_or_a_read_only_view_is_hashed_every_time(self, grid_passes):
        grid = np.random.default_rng(6).random((NUM_TOWERS, WINDOW.num_slots))
        matrix = TowerTrafficMatrix(np.arange(NUM_TOWERS), grid, WINDOW)
        first = matrix.digest()
        grid[0, 0] += 1.0
        assert matrix.digest() != first
        view = grid[:]
        view.flags.writeable = False
        viewed = TowerTrafficMatrix(np.arange(NUM_TOWERS), view, WINDOW)
        viewed.digest()
        grid[0, 0] += 1.0
        assert viewed.digest() == tobytes_fingerprint(grid)
        assert len(grid_passes) == 4
