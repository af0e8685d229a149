"""Tests for repro.io — model bundles (save/load) and the query server."""

import io
import json
import shutil
import struct
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main as cli_main
from repro.core.config import ModelConfig
from repro.core.model import TrafficPatternModel
from repro.io.persist import (
    ARRAYS_NAME,
    MANIFEST_NAME,
    NPY_HEADER_LIMIT,
    SCHEMA_VERSION,
    PersistError,
    config_from_manifest,
    config_to_manifest,
    load_model,
    read_manifest,
    save_model,
)
from repro.io.server import ModelServer
from repro.ingest.batch import RecordBatch
from repro.synth.scenario import ScenarioConfig, generate_scenario
from repro.utils.timeutils import SLOT_SECONDS, TimeWindow


@pytest.fixture(scope="module")
def scenario():
    return generate_scenario(
        ScenarioConfig(num_towers=50, num_users=80, num_days=7, seed=11)
    )


@pytest.fixture(scope="module")
def fitted_model(scenario):
    """A scalar-fit model with city labelling and a tuner curve."""
    model = TrafficPatternModel(ModelConfig(max_clusters=8))
    model.fit(scenario.traffic, city=scenario.city)
    return model


def _synthetic_day_batch(rng, window, num_towers, day, n=3000):
    starts = rng.uniform(day * 86_400.0, (day + 1) * 86_400.0, size=n)
    durations = rng.exponential(0.5 * SLOT_SECONDS, size=n)
    return RecordBatch(
        user_id=rng.integers(0, 400, size=n),
        tower_id=rng.integers(0, num_towers, size=n),
        start_s=starts,
        end_s=np.minimum(starts + durations, float(window.num_seconds)),
        bytes_used=rng.lognormal(9.0, 1.0, size=n),
        network=np.zeros(n, dtype=np.uint8),
    )


@pytest.fixture(scope="module")
def batch_fit_model():
    """A fit_batches model (no city, fixed cluster count)."""
    rng = np.random.default_rng(3)
    window = TimeWindow(num_days=7)
    batches = [_synthetic_day_batch(rng, window, 40, day) for day in range(7)]
    model = TrafficPatternModel(ModelConfig(num_clusters=4))
    model.fit_batches(batches, window, list(range(40)))
    return model


def _assert_results_equal(original, loaded):
    """Bit-for-bit equality of every array plus metadata of two results."""
    assert loaded.window == original.window
    assert np.array_equal(loaded.vectorized.tower_ids, original.vectorized.tower_ids)
    assert np.array_equal(loaded.vectorized.vectors, original.vectorized.vectors)
    assert np.array_equal(
        loaded.vectorized.raw.traffic, original.vectorized.raw.traffic
    )
    assert loaded.vectorized.method is original.vectorized.method
    assert np.array_equal(loaded.labels, original.labels)
    assert np.array_equal(
        loaded.clustering.dendrogram.merges, original.clustering.dendrogram.merges
    )
    assert (
        loaded.clustering.dendrogram.num_observations
        == original.clustering.dendrogram.num_observations
    )
    assert loaded.clustering.linkage is original.clustering.linkage
    assert loaded.clustering.threshold == original.clustering.threshold
    assert loaded.components == original.components
    assert np.array_equal(
        loaded.frequency_features.amplitudes, original.frequency_features.amplitudes
    )
    assert np.array_equal(
        loaded.frequency_features.phases, original.frequency_features.phases
    )
    if original.tuning_curve is None:
        assert loaded.tuning_curve is None
    else:
        assert np.array_equal(
            loaded.tuning_curve.num_clusters, original.tuning_curve.num_clusters
        )
        assert np.array_equal(loaded.tuning_curve.scores, original.tuning_curve.scores)
        assert np.array_equal(
            loaded.tuning_curve.thresholds, original.tuning_curve.thresholds
        )
        assert loaded.tuning_curve.best() == original.tuning_curve.best()
    if original.labeling is None:
        assert loaded.labeling is None
    else:
        assert loaded.labeling.as_dict() == original.labeling.as_dict()
        assert np.array_equal(loaded.labeling.scores, original.labeling.scores)
    if original.poi_profile is None:
        assert loaded.poi_profile is None
    else:
        assert np.array_equal(
            loaded.poi_profile.counts, original.poi_profile.counts
        )
        assert loaded.poi_profile.radius_km == original.poi_profile.radius_km
    if original.representatives is None:
        assert loaded.representatives is None
    else:
        assert np.array_equal(
            loaded.representatives.cluster_labels,
            original.representatives.cluster_labels,
        )
        assert np.array_equal(
            loaded.representatives.row_indices, original.representatives.row_indices
        )
        assert np.array_equal(
            loaded.representatives.tower_ids, original.representatives.tower_ids
        )
        assert np.array_equal(
            loaded.representatives.features, original.representatives.features
        )
    assert loaded.extras == original.extras


class TestRoundTrip:
    def test_scalar_fit_round_trip_bit_for_bit(self, fitted_model, tmp_path):
        bundle = fitted_model.save(tmp_path / "bundle")
        assert (bundle / MANIFEST_NAME).is_file()
        assert (bundle / ARRAYS_NAME).is_file()
        loaded = TrafficPatternModel.load(bundle)
        _assert_results_equal(fitted_model.result, loaded.result)
        assert loaded.config == fitted_model.config

    def test_batch_fit_round_trip_bit_for_bit(self, batch_fit_model, tmp_path):
        bundle = batch_fit_model.save(tmp_path / "bundle")
        loaded = TrafficPatternModel.load(bundle)
        _assert_results_equal(batch_fit_model.result, loaded.result)
        assert loaded.config == batch_fit_model.config

    def test_loaded_model_answers_every_query_identically(self, fitted_model, tmp_path):
        loaded = TrafficPatternModel.load(fitted_model.save(tmp_path / "bundle"))
        for tower_id in fitted_model.result.tower_ids:
            original = fitted_model.decompose(int(tower_id))
            reloaded = loaded.decompose(int(tower_id))
            assert original.as_dict() == reloaded.as_dict()
            assert original.residual == reloaded.residual
            assert fitted_model.predict_region(int(tower_id)) is loaded.predict_region(
                int(tower_id)
            )
        assert (
            loaded.result.percentage_table() == fitted_model.result.percentage_table()
        )

    def test_save_load_functions_match_method_api(self, fitted_model, tmp_path):
        path = save_model(fitted_model.result, fitted_model.config, tmp_path / "b")
        loaded = load_model(path)
        _assert_results_equal(fitted_model.result, loaded.result)
        assert loaded.manifest["schema_version"] == SCHEMA_VERSION

    def test_config_round_trip(self):
        config = ModelConfig(
            num_clusters=6,
            cluster_backend="nn_chain_lowmem",
            poi_radius_km=0.5,
            decomposition_feature=(("amplitude", "day"), ("phase", "half_day")),
        )
        assert config_from_manifest(config_to_manifest(config)) == config

    def test_manifest_naming_the_generic_backend_loads_as_auto(self):
        manifest = config_to_manifest(ModelConfig(num_clusters=6))
        manifest["cluster_backend"] = "generic"
        assert config_from_manifest(manifest) == ModelConfig(num_clusters=6)

    def test_manifest_with_a_workers_key_loads_and_ignores_it(self, fitted_model, tmp_path):
        # Bundles written while the worker count was a config field carry a
        # "workers" key; it is not part of the model, so it is ignored.
        bundle = fitted_model.save(tmp_path / "bundle")
        manifest_path = bundle / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        assert "workers" not in manifest["config"]
        manifest["config"]["workers"] = 2
        manifest_path.write_text(json.dumps(manifest))
        loaded = load_model(bundle)
        assert loaded.config == fitted_model.config
        _assert_results_equal(fitted_model.result, loaded.result)

    def test_unserialisable_extras_fail_loudly(self, fitted_model, tmp_path):
        result = fitted_model.result
        polluted = dict(result.extras)
        polluted["handle"] = object()
        original = result.extras
        result.extras = polluted
        try:
            with pytest.raises(PersistError, match="JSON"):
                save_model(result, fitted_model.config, tmp_path / "bad")
        finally:
            result.extras = original


class TestFailureModes:
    def test_missing_bundle(self, tmp_path):
        with pytest.raises(PersistError, match="no such model bundle"):
            load_model(tmp_path / "nope")

    def test_directory_without_manifest(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(PersistError, match="missing manifest.json"):
            load_model(tmp_path / "empty")

    def test_corrupt_manifest(self, fitted_model, tmp_path):
        bundle = fitted_model.save(tmp_path / "bundle")
        (bundle / MANIFEST_NAME).write_text("{ not json !")
        with pytest.raises(PersistError, match="corrupt manifest"):
            load_model(bundle)

    def test_wrong_format_marker(self, fitted_model, tmp_path):
        bundle = fitted_model.save(tmp_path / "bundle")
        manifest = json.loads((bundle / MANIFEST_NAME).read_text())
        manifest["format"] = "something-else"
        (bundle / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(PersistError, match="not a repro-traffic-model bundle"):
            read_manifest(bundle)

    def test_future_schema_version_rejected(self, fitted_model, tmp_path):
        bundle = fitted_model.save(tmp_path / "bundle")
        manifest = json.loads((bundle / MANIFEST_NAME).read_text())
        manifest["schema_version"] = SCHEMA_VERSION + 1
        (bundle / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(PersistError, match="newer than the supported version"):
            load_model(bundle)

    def test_missing_arrays_file(self, fitted_model, tmp_path):
        bundle = fitted_model.save(tmp_path / "bundle")
        (bundle / ARRAYS_NAME).unlink()
        with pytest.raises(PersistError, match="missing arrays.npz"):
            load_model(bundle)

    def test_tampered_array_fails_integrity_check(self, fitted_model, tmp_path):
        bundle = fitted_model.save(tmp_path / "bundle")
        with np.load(bundle / ARRAYS_NAME) as archive:
            arrays = {key: archive[key] for key in archive.files}
        arrays["clustering.labels"] = arrays["clustering.labels"].copy()
        arrays["clustering.labels"][0] += 1
        with (bundle / ARRAYS_NAME).open("wb") as handle:
            np.savez_compressed(handle, **arrays)
        with pytest.raises(PersistError, match="integrity check"):
            load_model(bundle)

    def test_missing_array_key(self, fitted_model, tmp_path):
        bundle = fitted_model.save(tmp_path / "bundle")
        with np.load(bundle / ARRAYS_NAME) as archive:
            arrays = {key: archive[key] for key in archive.files}
        del arrays["dendrogram.merges"]
        with (bundle / ARRAYS_NAME).open("wb") as handle:
            np.savez_compressed(handle, **arrays)
        with pytest.raises(PersistError, match="dendrogram.merges"):
            load_model(bundle)

    def test_truncated_archive_is_corrupt(self, fitted_model, tmp_path):
        bundle = fitted_model.save(tmp_path / "bundle")
        blob = (bundle / ARRAYS_NAME).read_bytes()
        (bundle / ARRAYS_NAME).write_bytes(blob[: len(blob) // 2])
        with pytest.raises(PersistError):
            load_model(bundle)

    @pytest.mark.parametrize(
        "section, key", [("config", "poi_radius_km"), ("poi_profile", "radius_km")]
    )
    def test_nan_poi_radius_is_corrupt(self, fitted_model, tmp_path, section, key):
        bundle = fitted_model.save(tmp_path / "bundle")
        manifest = json.loads((bundle / MANIFEST_NAME).read_text())
        manifest[section][key] = float("nan")
        (bundle / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(PersistError, match="corrupt manifest: .*radius_km") as err:
            load_model(bundle)
        assert "\n" not in str(err.value)

    def test_messages_are_path_qualified(self, tmp_path):
        missing = tmp_path / "absent"
        with pytest.raises(PersistError, match=str(missing)):
            load_model(missing)


class TestModelServer:
    @pytest.fixture(scope="class")
    def server(self, fitted_model, tmp_path_factory):
        bundle = fitted_model.save(tmp_path_factory.mktemp("srv") / "bundle")
        return ModelServer.from_artifact(bundle)

    def test_requires_fitted_model(self):
        with pytest.raises(RuntimeError, match="not been fitted"):
            ModelServer(TrafficPatternModel())

    def test_percentage_table_matches_the_cluster_summaries(self, server, fitted_model):
        rows = server.percentage_table()
        assert len(rows) == server.num_clusters == fitted_model.result.num_clusters == 5
        assert sum(row["percentage"] for row in rows) == pytest.approx(100.0, abs=0.1)
        assert rows == [
            {
                "cluster": summary.cluster_label + 1,
                "region": summary.region.value,
                "percentage": round(summary.percentage, 2),
            }
            for summary in fitted_model.result.summaries()
        ]

    def test_decompose_is_a_row_lookup(self, server):
        tower = server.tower_ids()[0]
        single = server.decompose(tower)
        whole = server.decompose_all()
        row = whole.row_of(tower)
        np.testing.assert_array_equal(single.coefficients, whole.coefficients[row])
        assert single.residual == whole.residuals[row]
        stats = server.stats()
        assert set(stats) == {"queries", "query_latency"}
        assert stats["queries"] >= 2

    def test_predict_region_and_pattern(self, server, fitted_model):
        tower = server.tower_ids()[3]
        assert server.predict_region(tower) is fitted_model.predict_region(tower)
        pattern = server.pattern_of(tower)
        assert pattern.tower_id == tower
        assert pattern.cluster == int(
            fitted_model.result.labels[fitted_model.result.vectorized.row_of(tower)]
        )
        traffic = fitted_model.result.vectorized.raw.traffic[
            fitted_model.result.vectorized.row_of(tower)
        ]
        row = pattern.as_row()
        assert row["tower_id"] == tower
        assert row["region"] == pattern.region.value
        assert row["total_bytes"] == float(traffic.sum())
        assert row["peak_slot"] == int(np.argmax(traffic))


    def test_result_loads_the_whole_bundle_on_first_access(self, fitted_model, tmp_path):
        server = ModelServer.from_artifact(fitted_model.save(tmp_path / "bundle"))
        _assert_results_equal(fitted_model.result, server.result)
        assert server.result is server.result

    def test_result_of_a_rewritten_bundle_is_refused(
        self, fitted_model, small_model, tmp_path
    ):
        bundle = fitted_model.save(tmp_path / "bundle")
        server = ModelServer.from_artifact(bundle)
        small_model.save(bundle)
        with pytest.raises(PersistError, match="changed since") as err:
            server.result
        _assert_one_line_error(err, bundle)


class TestStoredTotals:
    """``raw.total_bytes`` / ``raw.peak_slot``: each grid row's own sum and argmax."""

    @pytest.mark.parametrize("towers", [400, 1200])
    def test_totals_equal_each_rows_sum_bit_for_bit(self, towers, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        argv = ["fit", "--towers", str(towers), "--days", "7", "--seed", "2015",
                "--save", str(bundle)]
        assert cli_main(argv) == 0
        capsys.readouterr()
        manifest = read_manifest(bundle)
        assert manifest["schema_version"] == 1
        assert manifest["arrays"]["raw.total_bytes"]["dtype"] == "float64"
        assert manifest["arrays"]["raw.peak_slot"]["dtype"] == "int64"
        with np.load(bundle / ARRAYS_NAME) as archive:
            traffic = archive["raw.traffic"]
            totals = archive["raw.total_bytes"]
            peaks = archive["raw.peak_slot"]
        assert totals.shape == peaks.shape == (towers,)
        for row in range(towers):
            assert totals[row].tobytes() == np.float64(traffic[row].sum()).tobytes()
            assert peaks[row] == int(np.argmax(traffic[row]))


class TestMmapLoad:
    """``load_model(..., mmap=True)`` — file-backed arrays, identical values."""

    def test_mmap_round_trip_bit_for_bit(self, fitted_model, tmp_path):
        bundle = fitted_model.save(tmp_path / "bundle")
        eager = load_model(bundle)
        mapped = load_model(bundle, mmap=True)
        _assert_results_equal(eager.result, mapped.result)
        assert mapped.manifest == eager.manifest

    def test_mmap_arrays_are_file_backed(self, fitted_model, tmp_path):
        bundle = fitted_model.save(tmp_path / "bundle")
        mapped = load_model(bundle, mmap=True)
        vectors = mapped.result.vectorized.vectors
        # Dataclass coercion (np.asarray) may rewrap the memmap as a
        # zero-copy ndarray view; either way the buffer stays on disk.
        assert isinstance(vectors, np.memmap) or isinstance(vectors.base, np.memmap)

    def test_mmap_leaves_no_scratch_behind(self, fitted_model, tmp_path):
        bundle = fitted_model.save(tmp_path / "bundle")
        load_model(bundle, mmap=True)
        leftovers = [
            p for p in bundle.parent.rglob("*") if ".repro-mmap-" in p.name
        ]
        assert leftovers == []

    def test_mmap_model_queries_match_eager(self, fitted_model, tmp_path):
        bundle = fitted_model.save(tmp_path / "bundle")
        eager = TrafficPatternModel.load(bundle)
        mapped = TrafficPatternModel.load(bundle, mmap=True)
        assert np.array_equal(
            mapped.decompose_all().coefficients, eager.decompose_all().coefficients
        )
        tower = int(eager.result.tower_ids[0])
        assert mapped.predict_region(tower) is eager.predict_region(tower)

    def test_mmap_corrupt_bundle_still_fails_loudly(self, fitted_model, tmp_path):
        bundle = fitted_model.save(tmp_path / "bundle")
        (bundle / ARRAYS_NAME).write_bytes(b"not a zip archive")
        with pytest.raises(PersistError):
            load_model(bundle, mmap=True)


def _deflated(blob: bytes) -> bytes:
    """The same arrays written the way older versions did (``savez_compressed``)."""
    with np.load(io.BytesIO(blob)) as archive:
        arrays = {key: archive[key] for key in archive.files}
    out = io.BytesIO()
    np.savez_compressed(out, **arrays)
    return out.getvalue()


def _rewrite(blob: bytes, *, drop: str | None = None, add: tuple | None = None) -> bytes:
    """Copy an archive member by member, without ``drop`` and with ``add``.

    ``add`` is ``(name, data, compress_type)``; a name already present is
    replaced.
    """
    skipped = {drop, add[0] if add else None}
    out = io.BytesIO()
    with zipfile.ZipFile(io.BytesIO(blob)) as source, zipfile.ZipFile(out, "w") as target:
        for info in source.infolist():
            if info.filename not in skipped:
                target.writestr(info, source.read(info))
        if add is not None:
            name, data, compress_type = add
            target.writestr(name, data, compress_type=compress_type)
    return out.getvalue()


def _data_start(blob: bytes, info: zipfile.ZipInfo) -> int:
    """Offset of a member's (possibly deflated) bytes after its local header."""
    name_len, extra_len = struct.unpack_from("<HH", blob, info.header_offset + 26)
    return info.header_offset + 30 + name_len + extra_len


def _regions(blob: bytes) -> dict[str, list[int]]:
    """Byte offsets of an archive's zip headers, ``.npy`` headers and data.

    A deflated member's ``.npy`` header is inside its compressed stream, so
    all of that stream counts as data.
    """
    regions: dict[str, list[int]] = {"zip header": [], "npy header": [], "data": []}
    with zipfile.ZipFile(io.BytesIO(blob)) as archive:
        regions["zip header"] += range(archive.start_dir, len(blob))
        for info in archive.infolist():
            start = _data_start(blob, info)
            end = start + info.compress_size
            regions["zip header"] += range(info.header_offset, start)
            if info.compress_type == zipfile.ZIP_STORED:
                assert blob[start + 6] == 1  # .npy format version 1.0
                (header_len,) = struct.unpack_from("<H", blob, start + 8)
                regions["npy header"] += range(start, start + 10 + header_len)
                start += 10 + header_len
            regions["data"] += range(start, end)
    return {name: offsets for name, offsets in regions.items() if offsets}


def _assert_one_line_error(err, path):
    message = str(err.value)
    assert "\n" not in message
    assert message.startswith(str(path))


@pytest.fixture(scope="module")
def small_model():
    """A labelled fit small enough to load hundreds of times."""
    scenario = generate_scenario(
        ScenarioConfig(num_towers=12, num_users=30, num_days=7, seed=5)
    )
    model = TrafficPatternModel(ModelConfig(num_clusters=5))
    model.fit(scenario.traffic, city=scenario.city)
    return model


class TestArchiveLayout:
    def test_save_writes_only_stored_members(self, fitted_model, tmp_path):
        bundle = fitted_model.save(tmp_path / "bundle")
        with zipfile.ZipFile(bundle / ARRAYS_NAME) as archive:
            infos = archive.infolist()
        assert len(infos) == len(read_manifest(bundle)["arrays"])
        assert {info.compress_type for info in infos} == {zipfile.ZIP_STORED}

    @pytest.mark.parametrize("mmap", [False, True])
    def test_deflated_bundle_loads_bit_identical(self, fitted_model, tmp_path, mmap):
        bundle = fitted_model.save(tmp_path / "bundle")
        arrays_path = bundle / ARRAYS_NAME
        arrays_path.write_bytes(_deflated(arrays_path.read_bytes()))
        with zipfile.ZipFile(arrays_path) as archive:
            assert {info.compress_type for info in archive.infolist()} == {
                zipfile.ZIP_DEFLATED
            }
        _assert_results_equal(fitted_model.result, load_model(bundle, mmap=mmap).result)


@pytest.mark.parametrize("mmap", [False, True])
class TestDeclaredMembers:
    """Only the members the manifest declares are read, each within its size."""

    def test_undeclared_member_is_never_read(self, small_model, tmp_path, mmap):
        bundle = small_model.save(tmp_path / "bundle")
        arrays_path = bundle / ARRAYS_NAME
        # Reading this member would fail: its header length is over numpy's limit.
        unreadable = b"\x93NUMPY\x01\x00" + b"\xff" * 1000
        arrays_path.write_bytes(
            _rewrite(
                arrays_path.read_bytes(), add=("extra.npy", unreadable, zipfile.ZIP_DEFLATED)
            )
        )
        _assert_results_equal(small_model.result, load_model(bundle, mmap=mmap).result)

    def test_oversized_member_is_refused_before_it_is_read(self, small_model, tmp_path, mmap):
        bundle = small_model.save(tmp_path / "bundle")
        arrays_path = bundle / ARRAYS_NAME
        meta = read_manifest(bundle)["arrays"]["clustering.labels"]
        limit = int(np.prod(meta["shape"])) * np.dtype(meta["dtype"]).itemsize
        limit += NPY_HEADER_LIMIT
        # One byte over the limit, and unreadable: the size alone refuses it.
        arrays_path.write_bytes(
            _rewrite(
                arrays_path.read_bytes(),
                add=("clustering.labels.npy", b"\0" * (limit + 1), zipfile.ZIP_DEFLATED),
            )
        )
        with pytest.raises(PersistError, match=f"more than the {limit}") as err:
            load_model(bundle, mmap=mmap)
        _assert_one_line_error(err, arrays_path)

    def test_member_at_the_limit_is_read(self, small_model, tmp_path, mmap):
        bundle = small_model.save(tmp_path / "bundle")
        arrays_path = bundle / ARRAYS_NAME
        labels = small_model.result.clustering.labels
        # A valid .npy member whose header pads it to exactly the limit.
        header = repr(
            {
                "descr": np.lib.format.dtype_to_descr(labels.dtype),
                "fortran_order": False,
                "shape": labels.shape,
            }
        )
        header_len = NPY_HEADER_LIMIT - 10
        member = (
            b"\x93NUMPY\x01\x00"
            + struct.pack("<H", header_len)
            + (header.ljust(header_len - 1) + "\n").encode("latin1")
            + labels.tobytes()
        )
        assert len(member) == labels.nbytes + NPY_HEADER_LIMIT
        arrays_path.write_bytes(
            _rewrite(
                arrays_path.read_bytes(),
                add=("clustering.labels.npy", member, zipfile.ZIP_STORED),
            )
        )
        _assert_results_equal(small_model.result, load_model(bundle, mmap=mmap).result)

    def test_unknown_compression_method(self, small_model, tmp_path, mmap):
        bundle = small_model.save(tmp_path / "bundle")
        arrays_path = bundle / ARRAYS_NAME
        blob = bytearray(arrays_path.read_bytes())
        with zipfile.ZipFile(io.BytesIO(bytes(blob))) as archive:
            start_dir = archive.start_dir
        # The first central-directory record's compression method: 0 → 1 (shrunk).
        blob[start_dir + 10] ^= 1
        arrays_path.write_bytes(bytes(blob))
        with pytest.raises(PersistError, match="corrupt array archive") as err:
            load_model(bundle, mmap=mmap)
        _assert_one_line_error(err, arrays_path)

    def test_garbled_npy_header(self, small_model, tmp_path, mmap):
        bundle = small_model.save(tmp_path / "bundle")
        arrays_path = bundle / ARRAYS_NAME
        blob = bytearray(arrays_path.read_bytes())
        with zipfile.ZipFile(io.BytesIO(bytes(blob))) as archive:
            start = _data_start(blob, archive.getinfo("vectorized.vectors.npy"))
        # The header dict's opening brace becomes a quote: an unterminated string.
        assert blob[start + 10 : start + 11] == b"{"
        blob[start + 10] = ord("'")
        arrays_path.write_bytes(bytes(blob))
        with pytest.raises(PersistError, match="corrupt array archive") as err:
            load_model(bundle, mmap=mmap)
        _assert_one_line_error(err, arrays_path)


@st.composite
def archive_mutations(draw, blob: bytes, regions: dict[str, list[int]]):
    """Truncate, flip one bit in one of ``regions``, drop a member or add one."""
    kind = draw(st.sampled_from(["truncate", "flip", "drop", "add"]))
    if kind == "truncate":
        return blob[: draw(st.integers(0, len(blob) - 1))]
    if kind == "flip":
        offset = draw(st.sampled_from(regions[draw(st.sampled_from(sorted(regions)))]))
        mutated = bytearray(blob)
        mutated[offset] ^= 1 << draw(st.integers(0, 7))
        return bytes(mutated)
    with zipfile.ZipFile(io.BytesIO(blob)) as archive:
        names = archive.namelist()
    if kind == "drop":
        return _rewrite(blob, drop=draw(st.sampled_from(names)))
    name = draw(st.sampled_from(["extra.npy", "extra", "../extra.npy"]))
    data = draw(st.binary(max_size=64))
    method = draw(st.sampled_from([zipfile.ZIP_STORED, zipfile.ZIP_DEFLATED]))
    return _rewrite(blob, add=(name, data, method))


@pytest.mark.parametrize("mmap", [False, True], ids=["eager", "mmap"])
@pytest.mark.parametrize("layout", ["stored", "deflated"])
class TestArchiveFuzz:
    """A damaged archive loads the original arrays or fails with one line."""

    @pytest.fixture(scope="class")
    def pristine(self, small_model, tmp_path_factory):
        bundle = small_model.save(tmp_path_factory.mktemp("fuzz") / "bundle")
        stored = (bundle / ARRAYS_NAME).read_bytes()
        blobs = {"stored": stored, "deflated": _deflated(stored)}
        return bundle, {layout: (blob, _regions(blob)) for layout, blob in blobs.items()}

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_damaged_archive(self, small_model, pristine, layout, mmap, data):
        source, archives = pristine
        bundle = source.parent / f"{layout}-{'mmap' if mmap else 'eager'}"
        if not bundle.exists():
            shutil.copytree(source, bundle)
        arrays_path = bundle / ARRAYS_NAME
        arrays_path.write_bytes(data.draw(archive_mutations(*archives[layout])))
        try:
            loaded = load_model(bundle, mmap=mmap)
        except PersistError as err:
            message = str(err)
            assert "\n" not in message
            assert message.startswith(str(arrays_path))
        else:
            _assert_results_equal(small_model.result, loaded.result)
