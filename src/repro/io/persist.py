"""Versioned on-disk model bundles: fit once, query and update forever.

A fitted :class:`~repro.core.results.ModelResult` is written as a *bundle*
directory holding exactly two files:

``arrays.npz``
    Every array of the result — traffic matrix, normalised vectors, cluster
    labels, dendrogram merges, POI counts, frequency features,
    representative-tower features — stored losslessly (bit-for-bit) and
    uncompressed (``np.savez``): deflating shrank a dense 1,200-tower
    archive by ~6% and made each save ~10× slower.  Deflated archives from
    older versions still load.  Two per-tower arrays derived from the
    traffic matrix ride along, ``raw.total_bytes`` and ``raw.peak_slot``
    (:func:`traffic_totals`), so a server never reads the matrix; bundles
    written before them get both from their own matrix when served.

``manifest.json``
    Schema version, the :class:`~repro.core.config.ModelConfig` used for the
    fit, the observation window, scalar/enum metadata of every component,
    the fit's per-stage input fingerprints (the resume/update machinery) and
    a SHA-256 content digest of every array for integrity checking (for
    ``raw.traffic``, the digest the fit computed, when the grid cannot have
    changed since).

:func:`save_model` / :func:`load_model` round-trip the result exactly:
``load_model(save_model(result))`` answers every query — decompositions,
region predictions, cluster summaries — identically to the in-memory
original.  :func:`read_serving_arrays` reads only what a
:class:`~repro.io.server.ModelServer` answers from: every array but the two
towers × slots grids, each digest-checked, and none of the fit stack is
imported to do it.  All failure modes (missing bundle, corrupt manifest,
truncated or tampered arrays, a bundle written by a newer schema) raise
:class:`PersistError` with a path-qualified one-line message.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import tempfile
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable

import numpy as np

from repro import __version__
from repro.decompose.representative import RepresentativeTowers
from repro.spectral.components import PrincipalComponents
from repro.spectral.features import FrequencyFeatures
from repro.utils.fingerprint import fingerprint_array

if TYPE_CHECKING:
    from repro.core.config import ModelConfig
    from repro.core.results import ModelResult

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
    }


def config_from_manifest(data: dict) -> ModelConfig:
    """Rebuild the :class:`ModelConfig` recorded in a manifest.

    Keys it does not read are ignored, e.g. the ``workers`` key of bundles
    written while the worker count was part of the config.
    """
    from repro.cluster.backends import DEFAULT_TILE_SIZE
    from repro.cluster.linkage import Linkage
    from repro.core.config import ModelConfig
    from repro.vectorize.normalize import NormalizationMethod

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


def traffic_totals(traffic: np.ndarray) -> dict[str, np.ndarray]:
    """Return the two per-tower arrays a bundle derives from its traffic grid.

    ``raw.total_bytes`` (float64) is each row's sum and ``raw.peak_slot``
    (int64) the slot of its first maximum: the two numbers a tower's
    ``/pattern`` reply carries.  :func:`save_model` stores both, an
    in-memory :class:`~repro.io.server.ModelServer` computes them from its
    fit, and :func:`read_serving_arrays` computes them for a bundle written
    before they were stored.
    """
    return {
        "raw.total_bytes": traffic.sum(axis=1),
        "raw.peak_slot": traffic.argmax(axis=1).astype(np.int64, copy=False),
    }


def bundle_contents(
    result: ModelResult, config: ModelConfig
) -> tuple[dict[str, np.ndarray], dict[str, Any]]:
    """Return the arrays and the manifest (less its digests) of a bundle.

    :func:`save_model` writes them; an in-memory
    :class:`~repro.io.server.ModelServer` serves from them, so a fit is
    served exactly as its bundle would be.  The result's arrays are handed
    over as they are (only the two :func:`traffic_totals` are computed), and
    nothing is hashed.
    """
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
        **traffic_totals(raw.traffic),
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
            "extras": clustering.extras,
        },
        "components": {
            "week": result.components.week,
            "day": result.components.day,
            "half_day": result.components.half_day,
            "num_slots": result.components.num_slots,
        },
        "extras": result.extras,
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
    return arrays, manifest


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
    arrays, manifest = bundle_contents(result, config)
    manifest = _json_ready(manifest, "the model manifest", bundle)
    # TowerTrafficMatrix.digest returns the fit's digest of a read-only grid
    # and hashes any other grid.
    digests = {"raw.traffic": result.vectorized.raw.digest()}
    manifest["arrays"] = {
        key: {
            "sha256": digests[key] if key in digests else fingerprint_array(array),
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
            np.savez(handle, **arrays)
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


#: numpy refuses ``.npy`` headers longer than this many bytes, so an archive
#: member may exceed its array's data by at most this much.
NPY_HEADER_LIMIT = 10_000


def _member_limits(manifest_path: Path, declared: dict) -> dict[str, int]:
    """Return the largest archive member, in bytes, each declared array allows."""
    limits = {}
    for key, meta in declared.items():
        try:
            itemsize = np.dtype(meta["dtype"]).itemsize
            data_bytes = math.prod(int(n) for n in meta["shape"]) * itemsize
        except (KeyError, TypeError, ValueError) as err:
            raise PersistError(
                f"{manifest_path}: corrupt manifest: array {key!r}: {err}"
            ) from None
        limits[key] = data_bytes + NPY_HEADER_LIMIT
    return limits


def _read_arrays(
    arrays_path: Path, limits: dict[str, int], *, mmap: bool
) -> dict[str, np.ndarray]:
    """Read the ``<key>.npy`` member of every key in ``limits``, and nothing else.

    A member larger than its limit is refused before any of it is read.  The
    eager load parses each member straight from the archive.  A ``.npy``
    member inside an NPZ archive cannot be memory-mapped where it lies, so
    with ``mmap=True`` each member is copied (inflated, for a deflated
    archive) to a scratch directory — next to the archive when writable, so
    the pages are backed by the same filesystem, else the system temp dir —
    and mapped from there with ``np.load(copy, mmap_mode="r")``.  On POSIX
    the copies are unlinked at once (the mappings stay valid), so nothing is
    left on disk; array pages are faulted in lazily and stay evictable.
    """
    scratch = None
    arrays: dict[str, np.ndarray] = {}
    try:
        if mmap:
            parent = arrays_path.parent
            scratch = tempfile.mkdtemp(
                prefix=".repro-mmap-", dir=parent if os.access(parent, os.W_OK) else None
            )
        with zipfile.ZipFile(arrays_path) as archive:
            for index, (key, limit) in enumerate(limits.items()):
                try:
                    info = archive.getinfo(key + ".npy")
                except KeyError:
                    raise PersistError(f"{arrays_path}: missing array {key!r}") from None
                if info.file_size > limit:
                    raise PersistError(
                        f"{arrays_path}: array {key!r} member holds {info.file_size} "
                        f"bytes, more than the {limit} its manifest shape and dtype allow"
                    )
                with archive.open(info) as member:
                    if scratch is None:
                        arrays[key] = np.lib.format.read_array(member)
                    else:
                        # Named by position: a manifest key is not a safe file name.
                        copy = os.path.join(scratch, f"{index}.npy")
                        with open(copy, "wb") as out:
                            shutil.copyfileobj(member, out)
                        arrays[key] = np.load(copy, mmap_mode="r")
    except PersistError:
        raise
    except Exception as err:
        # The block only reads the untrusted archive, and zipfile and numpy's
        # .npy reader raise many types on a damaged one: BadZipFile,
        # zlib.error, NotImplementedError (an unknown compression method),
        # RuntimeError (an encryption flag), SyntaxError or
        # tokenize.TokenError (a garbled header), ...
        detail = " ".join(f"{type(err).__name__}: {err}".split())
        raise PersistError(f"{arrays_path}: corrupt array archive: {detail}") from None
    finally:
        # POSIX semantics: unlinking a mapped file leaves the mapping
        # usable; on platforms where the files are still open this leaves
        # the scratch directory behind rather than failing the load.
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)
    return arrays


#: The two towers × slots grids of a bundle.  No served reply reads them:
#: :func:`read_serving_arrays` leaves both on disk.
GRID_ARRAYS = ("raw.traffic", "vectorized.vectors")


def _declared_arrays(bundle: Path, manifest: dict) -> dict:
    """Return the manifest's ``arrays`` section (shape, dtype and digest per key)."""
    declared = manifest.get("arrays")
    if not isinstance(declared, dict):
        raise PersistError(f"{bundle / MANIFEST_NAME}: corrupt manifest: missing arrays section")
    return declared


def _load_arrays(
    bundle: Path,
    manifest: dict,
    keys: Iterable[str] | None = None,
    *,
    mmap: bool = False,
) -> dict[str, np.ndarray]:
    """Load and integrity-check the declared arrays named by ``keys`` (all by default)."""
    arrays_path = bundle / ARRAYS_NAME
    manifest_path = bundle / MANIFEST_NAME
    if not arrays_path.is_file():
        raise PersistError(f"{bundle}: not a model bundle (missing {ARRAYS_NAME})")
    declared = _declared_arrays(bundle, manifest)
    if keys is not None:
        missing = [key for key in keys if key not in declared]
        if missing:
            raise PersistError(f"{arrays_path}: missing array {missing[0]!r}")
        declared = {key: declared[key] for key in keys}
    arrays = _read_arrays(arrays_path, _member_limits(manifest_path, declared), mmap=mmap)
    for key, meta in declared.items():
        if fingerprint_array(arrays[key]) != meta.get("sha256"):
            raise PersistError(f"{arrays_path}: array {key!r} failed its integrity check")
    return arrays


def read_serving_arrays(path: str | Path) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a bundle's manifest and every declared array but the two grids.

    Returns ``(manifest, arrays)``.  Each array is read eagerly and checked
    against its manifest digest; ``raw.traffic`` and ``vectorized.vectors``
    (:data:`GRID_ARRAYS`) are never read, except that a bundle written before
    ``raw.total_bytes``/``raw.peak_slot`` were stored reads ``raw.traffic``
    once to compute them (:func:`traffic_totals`) and then drops it.

    Raises
    ------
    PersistError
        With a path-qualified one-line message, as :func:`load_model`.
    """
    bundle = Path(path)
    manifest = read_manifest(bundle)
    declared = _declared_arrays(bundle, manifest)
    keys = [key for key in declared if key not in GRID_ARRAYS]
    if "raw.total_bytes" not in declared:
        keys.append("raw.traffic")
    arrays = _load_arrays(bundle, manifest, keys)
    if "raw.traffic" in arrays:
        arrays.update(traffic_totals(arrays.pop("raw.traffic")))
    return manifest, arrays


def decomposition_inputs(
    need: Callable[[str], np.ndarray], manifest: dict
) -> tuple[FrequencyFeatures, RepresentativeTowers | None]:
    """Return a bundle's frequency features and primary components.

    ``need`` returns the array stored under a key.  :func:`load_model`
    rebuilds a result from them; a :class:`~repro.io.server.ModelServer`
    decomposes the city with them.  The components are ``None`` when the
    fit produced none.
    """
    components = manifest["components"]
    features = FrequencyFeatures(
        tower_ids=need("features.tower_ids"),
        amplitudes=need("features.amplitudes"),
        phases=need("features.phases"),
        components=PrincipalComponents(
            week=None if components["week"] is None else int(components["week"]),
            day=int(components["day"]),
            half_day=int(components["half_day"]),
            num_slots=int(components["num_slots"]),
        ),
    )
    representatives = None
    if manifest["representatives"] is not None:
        representatives = RepresentativeTowers(
            cluster_labels=need("representatives.cluster_labels"),
            row_indices=need("representatives.row_indices"),
            tower_ids=need("representatives.tower_ids"),
            features=need("representatives.features"),
        )
    return features, representatives


def load_model(path: str | Path, *, mmap: bool = False) -> LoadedModel:
    """Read a model bundle back into a :class:`LoadedModel`.

    The reconstruction is bit-for-bit: every array compares equal to what
    :func:`save_model` was given, so the loaded result answers every query
    identically to the original in-memory fit.

    With ``mmap=True`` every array is opened as a read-only memory map
    instead of being materialised in RAM: pages fault in on first touch and
    stay evictable, so loading a second large bundle next to a live one
    does not double the peak RSS.  The arrays compare equal either way;
    they are just not writable.

    Raises
    ------
    PersistError
        With a path-qualified one-line message for every failure mode
        (missing bundle, corrupt manifest or arrays, checksum mismatch,
        future schema version).
    """
    from repro.cluster.hierarchical import ClusteringResult, Dendrogram
    from repro.cluster.linkage import Linkage
    from repro.cluster.tuner import TuningCurve
    from repro.core.results import ModelResult
    from repro.geo.labeling import ClusterLabeling
    from repro.geo.poi_profile import POIProfile
    from repro.synth.regions import RegionType
    from repro.synth.traffic import TowerTrafficMatrix
    from repro.utils.timeutils import TimeWindow
    from repro.vectorize.normalize import NormalizationMethod
    from repro.vectorize.vectorizer import VectorizedTraffic

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

        frequency_features, representatives = decomposition_inputs(need, manifest)
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
        components=frequency_features.components,
        frequency_features=frequency_features,
        representatives=representatives,
        extras=extras,
    )
    return LoadedModel(result=result, config=config, manifest=manifest)
