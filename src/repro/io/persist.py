"""Versioned on-disk model bundles: fit once, query and update forever.

A fitted :class:`~repro.core.results.ModelResult` is written as a *bundle*
directory holding exactly two files:

``arrays.npz``
    Every array of the result — traffic matrix, normalised vectors, cluster
    labels, dendrogram merges, POI counts, frequency features,
    representative-tower features — stored losslessly (bit-for-bit).

``manifest.json``
    Schema version, the :class:`~repro.core.config.ModelConfig` used for the
    fit, the observation window, scalar/enum metadata of every component,
    the fit's per-stage input fingerprints (the resume/update machinery) and
    a SHA-256 content digest of every array for integrity checking.

:func:`save_model` / :func:`load_model` round-trip the result exactly:
``load_model(save_model(result))`` answers every query — decompositions,
region predictions, cluster summaries — identically to the in-memory
original.  All failure modes (missing bundle, corrupt manifest, truncated or
tampered arrays, a bundle written by a newer schema) raise
:class:`PersistError` with a path-qualified one-line message.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import zipfile
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro import __version__
from repro.cluster.backends import DEFAULT_TILE_SIZE
from repro.cluster.hierarchical import ClusteringResult, Dendrogram
from repro.cluster.linkage import Linkage
from repro.cluster.tuner import TuningCurve
from repro.core.config import ModelConfig
from repro.core.results import ModelResult
from repro.decompose.representative import RepresentativeTowers
from repro.geo.labeling import ClusterLabeling
from repro.geo.poi_profile import POIProfile
from repro.spectral.components import PrincipalComponents
from repro.spectral.features import FrequencyFeatures
from repro.synth.regions import RegionType
from repro.synth.traffic import TowerTrafficMatrix
from repro.utils.fingerprint import fingerprint_array
from repro.utils.timeutils import TimeWindow
from repro.vectorize.normalize import NormalizationMethod
from repro.vectorize.vectorizer import VectorizedTraffic

#: Name of the bundle format, recorded in every manifest.
FORMAT_NAME = "repro-traffic-model"

#: Highest bundle schema version this build reads and writes.
SCHEMA_VERSION = 1

#: File names inside a bundle directory.
MANIFEST_NAME = "manifest.json"
ARRAYS_NAME = "arrays.npz"

#: Optional telemetry sidecar written next to the two bundle files by traced
#: CLI runs (``repro-traffic fit --save ... --trace``).  Purely informative:
#: bundles load identically with or without it, and :func:`save_model` never
#: writes or deletes it.
TRACE_SIDECAR_NAME = "trace.json"


class PersistError(RuntimeError):
    """A model bundle could not be written or read back faithfully."""


@dataclass
class LoadedModel:
    """Everything reconstructed from one model bundle."""

    result: ModelResult
    config: ModelConfig
    manifest: dict


# ----------------------------------------------------------------------
# ModelConfig <-> manifest
# ----------------------------------------------------------------------


def config_to_manifest(config: ModelConfig) -> dict:
    """Serialise a :class:`ModelConfig` to plain JSON types."""
    return {
        "normalization": config.normalization.value,
        "linkage": config.linkage.value,
        "cluster_backend": config.cluster_backend,
        "cluster_tile_size": config.cluster_tile_size,
        "validity_index": config.validity_index,
        "min_clusters": config.min_clusters,
        "max_clusters": config.max_clusters,
        "num_clusters": config.num_clusters,
        "poi_radius_km": config.poi_radius_km,
        "feature_normalization": config.feature_normalization.value,
        "decomposition_feature": [list(pair) for pair in config.decomposition_feature],
        "workers": config.workers,
    }


def config_from_manifest(data: dict) -> ModelConfig:
    """Rebuild the :class:`ModelConfig` recorded in a manifest."""
    return ModelConfig(
        normalization=NormalizationMethod(data["normalization"]),
        linkage=Linkage(data["linkage"]),
        # Bundles written while the full-matrix "generic" backend existed may
        # name it; its cuts equal nn_chain's, so they load as "auto".
        cluster_backend=(
            "auto" if data["cluster_backend"] == "generic" else data["cluster_backend"]
        ),
        # Bundles written before the memory-bounded clustering backend carry
        # no tile size; they load with the default tile.
        cluster_tile_size=int(data.get("cluster_tile_size", DEFAULT_TILE_SIZE)),
        validity_index=data["validity_index"],
        min_clusters=int(data["min_clusters"]),
        max_clusters=int(data["max_clusters"]),
        num_clusters=None if data["num_clusters"] is None else int(data["num_clusters"]),
        poi_radius_km=float(data["poi_radius_km"]),
        feature_normalization=NormalizationMethod(data["feature_normalization"]),
        decomposition_feature=tuple(tuple(pair) for pair in data["decomposition_feature"]),
        # Bundles written before the parallel ingest plane carry no workers
        # field; they load as serial (0), the old behaviour.
        workers=int(data.get("workers", 0)),
    )


def _json_ready(value: Any, what: str, path: Path) -> Any:
    """Round-trip ``value`` through JSON, failing with a bundle-qualified error."""
    try:
        return json.loads(json.dumps(value))
    except (TypeError, ValueError) as err:
        raise PersistError(
            f"{path}: cannot persist {what}: not JSON-serialisable ({err})"
        ) from None


def _restore_extras(extras: dict) -> dict:
    """Undo the JSON lossiness on known extras keys.

    ``decomposition_feature`` is a tuple of ``(kind, component)`` tuples in
    memory but becomes nested lists through JSON; restore the tuple shape so
    a round-tripped result compares equal to the original.
    """
    restored = dict(extras)
    feature = restored.get("decomposition_feature")
    if feature is not None:
        restored["decomposition_feature"] = tuple(tuple(pair) for pair in feature)
    return restored


# ----------------------------------------------------------------------
# Saving
# ----------------------------------------------------------------------


def save_model(
    result: ModelResult,
    config: ModelConfig,
    path: str | Path,
) -> Path:
    """Write a fitted model to a bundle directory; returns the bundle path.

    The directory is created if needed.  An existing bundle at the same path
    is replaced by writing both files under temporary names first and then
    atomically renaming each into place, so a crash mid-write never
    truncates the previous copy; a crash between the two renames leaves a
    cross-file checksum mismatch that :func:`load_model` rejects loudly
    instead of serving a silently inconsistent model.
    """
    bundle = Path(path)
    vectorized = result.vectorized
    raw = vectorized.raw
    clustering = result.clustering
    dendrogram = clustering.dendrogram
    window = result.window

    arrays: dict[str, np.ndarray] = {
        "vectorized.tower_ids": vectorized.tower_ids,
        "vectorized.vectors": vectorized.vectors,
        "raw.tower_ids": raw.tower_ids,
        "raw.traffic": raw.traffic,
        "clustering.labels": clustering.labels,
        "dendrogram.merges": dendrogram.merges,
        "features.tower_ids": result.frequency_features.tower_ids,
        "features.amplitudes": result.frequency_features.amplitudes,
        "features.phases": result.frequency_features.phases,
    }

    manifest: dict[str, Any] = {
        "format": FORMAT_NAME,
        "schema_version": SCHEMA_VERSION,
        "package_version": __version__,
        "config": config_to_manifest(config),
        "window": {"num_days": window.num_days, "start_weekday": window.start_weekday},
        "vectorized": {"method": vectorized.method.value},
        "clustering": {
            "linkage": clustering.linkage.value,
            "threshold": None if clustering.threshold is None else float(clustering.threshold),
            "num_observations": dendrogram.num_observations,
            "extras": _json_ready(clustering.extras, "clustering extras", bundle),
        },
        "components": {
            "week": result.components.week,
            "day": result.components.day,
            "half_day": result.components.half_day,
            "num_slots": result.components.num_slots,
        },
        "extras": _json_ready(result.extras, "result extras", bundle),
    }

    if result.tuning_curve is not None:
        curve = result.tuning_curve
        arrays["tuning.num_clusters"] = curve.num_clusters
        arrays["tuning.scores"] = curve.scores
        arrays["tuning.thresholds"] = curve.thresholds
        manifest["tuning_curve"] = {
            "index_name": curve.index_name,
            "lower_is_better": curve.lower_is_better,
        }
    else:
        manifest["tuning_curve"] = None

    if result.labeling is not None:
        labeling = result.labeling
        arrays["labeling.cluster_labels"] = labeling.cluster_labels
        arrays["labeling.scores"] = labeling.scores
        manifest["labeling"] = {
            "regions": [region.value for region in labeling.region_types]
        }
    else:
        manifest["labeling"] = None

    if result.poi_profile is not None:
        profile = result.poi_profile
        arrays["poi.tower_ids"] = profile.tower_ids
        arrays["poi.counts"] = profile.counts
        manifest["poi_profile"] = {"radius_km": profile.radius_km}
    else:
        manifest["poi_profile"] = None

    if result.representatives is not None:
        reps = result.representatives
        arrays["representatives.cluster_labels"] = reps.cluster_labels
        arrays["representatives.row_indices"] = reps.row_indices
        arrays["representatives.tower_ids"] = reps.tower_ids
        arrays["representatives.features"] = reps.features
        manifest["representatives"] = {}
    else:
        manifest["representatives"] = None

    manifest["arrays"] = {
        key: {
            "sha256": fingerprint_array(array),
            "shape": list(array.shape),
            "dtype": str(array.dtype),
        }
        for key, array in arrays.items()
    }

    arrays_tmp = bundle / (ARRAYS_NAME + ".tmp")
    manifest_tmp = bundle / (MANIFEST_NAME + ".tmp")
    try:
        bundle.mkdir(parents=True, exist_ok=True)
        with arrays_tmp.open("wb") as handle:
            np.savez_compressed(handle, **arrays)
        manifest_tmp.write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        )
        os.replace(arrays_tmp, bundle / ARRAYS_NAME)
        os.replace(manifest_tmp, bundle / MANIFEST_NAME)
    except OSError as err:
        for leftover in (arrays_tmp, manifest_tmp):
            leftover.unlink(missing_ok=True)
        raise PersistError(f"{bundle}: cannot write model bundle: {err}") from err
    return bundle


def write_trace_sidecar(payload: dict, bundle: str | Path) -> Path:
    """Write a telemetry payload as ``trace.json`` inside a bundle directory.

    The payload is the :meth:`repro.obs.trace.Tracer.to_dict` schema,
    optionally extended with a ``"metrics"`` registry snapshot.  Written
    atomically (temporary name + rename) like the bundle files; returns the
    sidecar path.
    """
    bundle_path = Path(bundle)
    sidecar = bundle_path / TRACE_SIDECAR_NAME
    tmp = bundle_path / (TRACE_SIDECAR_NAME + ".tmp")
    try:
        bundle_path.mkdir(parents=True, exist_ok=True)
        tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        os.replace(tmp, sidecar)
    except (OSError, TypeError, ValueError) as err:
        tmp.unlink(missing_ok=True)
        raise PersistError(f"{sidecar}: cannot write trace sidecar: {err}") from None
    return sidecar


def read_trace_sidecar(bundle: str | Path) -> dict | None:
    """Read a bundle's ``trace.json`` sidecar, or ``None`` when absent.

    Raises
    ------
    PersistError
        If a sidecar exists but is not valid JSON.
    """
    sidecar = Path(bundle) / TRACE_SIDECAR_NAME
    if not sidecar.is_file():
        return None
    try:
        payload = json.loads(sidecar.read_text())
    except (OSError, json.JSONDecodeError) as err:
        raise PersistError(f"{sidecar}: corrupt trace sidecar: {err}") from None
    if not isinstance(payload, dict):
        raise PersistError(f"{sidecar}: corrupt trace sidecar: expected a JSON object")
    return payload


# ----------------------------------------------------------------------
# Loading
# ----------------------------------------------------------------------


def read_manifest(path: str | Path) -> dict:
    """Read and validate a bundle's manifest (format + schema version).

    Raises
    ------
    PersistError
        With a path-qualified one-line message for every failure mode.
    """
    bundle = Path(path)
    manifest_path = bundle / MANIFEST_NAME
    if not bundle.exists():
        raise PersistError(f"{bundle}: no such model bundle")
    if not manifest_path.is_file():
        raise PersistError(f"{bundle}: not a model bundle (missing {MANIFEST_NAME})")
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, json.JSONDecodeError) as err:
        raise PersistError(f"{manifest_path}: corrupt manifest: {err}") from None
    if not isinstance(manifest, dict) or manifest.get("format") != FORMAT_NAME:
        raise PersistError(
            f"{manifest_path}: not a {FORMAT_NAME} bundle "
            f"(format: {manifest.get('format') if isinstance(manifest, dict) else '?'})"
        )
    version = manifest.get("schema_version")
    if not isinstance(version, int) or version < 1:
        raise PersistError(f"{manifest_path}: corrupt manifest: bad schema_version {version!r}")
    if version > SCHEMA_VERSION:
        raise PersistError(
            f"{manifest_path}: bundle schema version {version} is newer than the "
            f"supported version {SCHEMA_VERSION}; upgrade repro-traffic to read it"
        )
    return manifest


def _read_arrays_mmap(arrays_path: Path) -> dict[str, np.ndarray]:
    """Open every archive member as a read-only memory map.

    ``np.load(..., mmap_mode=...)`` cannot map members of a (compressed) NPZ
    archive directly, so each ``<key>.npy`` member is decompressed once to a
    scratch directory — next to the archive when writable, so the pages are
    backed by the same filesystem, else the system temp dir — and mapped
    from there with ``np.load(member, mmap_mode="r")``.  On POSIX the
    scratch files are unlinked immediately (the mappings stay valid), so
    nothing is left on disk; array pages are faulted in lazily and stay
    evictable, which keeps a hot-swap from holding two full models in RSS.
    """
    parent = arrays_path.parent
    scratch_parent = parent if os.access(parent, os.W_OK) else None
    tmpdir = tempfile.mkdtemp(prefix=".repro-mmap-", dir=scratch_parent)
    arrays: dict[str, np.ndarray] = {}
    try:
        with zipfile.ZipFile(arrays_path) as archive:
            for member in archive.namelist():
                extracted = archive.extract(member, tmpdir)
                key = member[: -len(".npy")] if member.endswith(".npy") else member
                arrays[key] = np.load(extracted, mmap_mode="r")
    finally:
        # POSIX semantics: unlinking a mapped file leaves the mapping
        # usable; on platforms where the files are still open this leaves
        # the scratch directory behind rather than failing the load.
        shutil.rmtree(tmpdir, ignore_errors=True)
    return arrays


def _load_arrays(bundle: Path, manifest: dict, *, mmap: bool = False) -> dict[str, np.ndarray]:
    """Load and integrity-check the bundle's arrays."""
    arrays_path = bundle / ARRAYS_NAME
    if not arrays_path.is_file():
        raise PersistError(f"{bundle}: not a model bundle (missing {ARRAYS_NAME})")
    try:
        if mmap:
            arrays = _read_arrays_mmap(arrays_path)
        else:
            with np.load(arrays_path) as archive:
                arrays = {key: archive[key] for key in archive.files}
    except (
        OSError,
        ValueError,
        KeyError,
        EOFError,
        zipfile.BadZipFile,
        zlib.error,
    ) as err:
        raise PersistError(f"{arrays_path}: corrupt array archive: {err}") from None

    declared = manifest.get("arrays")
    if not isinstance(declared, dict):
        raise PersistError(f"{bundle / MANIFEST_NAME}: corrupt manifest: missing arrays section")
    for key, meta in declared.items():
        if key not in arrays:
            raise PersistError(f"{arrays_path}: missing array {key!r}")
        if fingerprint_array(arrays[key]) != meta.get("sha256"):
            raise PersistError(f"{arrays_path}: array {key!r} failed its integrity check")
    return arrays


def load_model(path: str | Path, *, mmap: bool = False) -> LoadedModel:
    """Read a model bundle back into a :class:`LoadedModel`.

    The reconstruction is bit-for-bit: every array compares equal to what
    :func:`save_model` was given, so the loaded result answers every query
    identically to the original in-memory fit.

    With ``mmap=True`` every array is opened as a read-only memory map
    instead of being materialised in RAM: pages fault in on first touch and
    stay evictable, so loading a second large bundle next to a live one —
    the serving plane's hot-swap — does not double the peak RSS.  The
    arrays compare equal either way; they are just not writable.

    Raises
    ------
    PersistError
        With a path-qualified one-line message for every failure mode
        (missing bundle, corrupt manifest or arrays, checksum mismatch,
        future schema version).
    """
    bundle = Path(path)
    manifest = read_manifest(bundle)
    arrays = _load_arrays(bundle, manifest, mmap=mmap)

    def need(key: str) -> np.ndarray:
        if key not in arrays:
            raise PersistError(f"{bundle / ARRAYS_NAME}: missing array {key!r}")
        return arrays[key]

    try:
        window = TimeWindow(
            num_days=int(manifest["window"]["num_days"]),
            start_weekday=int(manifest["window"]["start_weekday"]),
        )
        raw = TowerTrafficMatrix(
            tower_ids=need("raw.tower_ids"),
            traffic=need("raw.traffic"),
            window=window,
        )
        vectorized = VectorizedTraffic(
            tower_ids=need("vectorized.tower_ids"),
            vectors=need("vectorized.vectors"),
            raw=raw,
            method=NormalizationMethod(manifest["vectorized"]["method"]),
            window=window,
        )
        clustering_meta = manifest["clustering"]
        dendrogram = Dendrogram(
            merges=need("dendrogram.merges"),
            num_observations=int(clustering_meta["num_observations"]),
        )
        threshold = clustering_meta["threshold"]
        clustering = ClusteringResult(
            labels=need("clustering.labels"),
            dendrogram=dendrogram,
            linkage=Linkage(clustering_meta["linkage"]),
            threshold=None if threshold is None else float(threshold),
            extras=dict(clustering_meta.get("extras", {})),
        )

        tuning_curve = None
        if manifest["tuning_curve"] is not None:
            tuning_curve = TuningCurve(
                num_clusters=need("tuning.num_clusters"),
                scores=need("tuning.scores"),
                thresholds=need("tuning.thresholds"),
                index_name=manifest["tuning_curve"]["index_name"],
                lower_is_better=bool(manifest["tuning_curve"]["lower_is_better"]),
            )

        labeling = None
        if manifest["labeling"] is not None:
            labeling = ClusterLabeling(
                cluster_labels=need("labeling.cluster_labels"),
                region_types=[
                    RegionType(value) for value in manifest["labeling"]["regions"]
                ],
                scores=need("labeling.scores"),
            )

        poi_profile = None
        if manifest["poi_profile"] is not None:
            poi_profile = POIProfile(
                tower_ids=need("poi.tower_ids"),
                counts=need("poi.counts"),
                radius_km=float(manifest["poi_profile"]["radius_km"]),
            )

        components_meta = manifest["components"]
        components = PrincipalComponents(
            week=None if components_meta["week"] is None else int(components_meta["week"]),
            day=int(components_meta["day"]),
            half_day=int(components_meta["half_day"]),
            num_slots=int(components_meta["num_slots"]),
        )
        frequency_features = FrequencyFeatures(
            tower_ids=need("features.tower_ids"),
            amplitudes=need("features.amplitudes"),
            phases=need("features.phases"),
            components=components,
        )

        representatives = None
        if manifest["representatives"] is not None:
            representatives = RepresentativeTowers(
                cluster_labels=need("representatives.cluster_labels"),
                row_indices=need("representatives.row_indices"),
                tower_ids=need("representatives.tower_ids"),
                features=need("representatives.features"),
            )

        config = config_from_manifest(manifest["config"])
        extras = _restore_extras(manifest["extras"])
    except PersistError:
        raise
    except (KeyError, TypeError, ValueError) as err:
        raise PersistError(
            f"{bundle / MANIFEST_NAME}: corrupt manifest: {err}"
        ) from None

    result = ModelResult(
        window=window,
        vectorized=vectorized,
        clustering=clustering,
        tuning_curve=tuning_curve,
        labeling=labeling,
        poi_profile=poi_profile,
        components=components,
        frequency_features=frequency_features,
        representatives=representatives,
        extras=extras,
    )
    return LoadedModel(result=result, config=config, manifest=manifest)
