"""In-process query server over a fitted or persisted traffic-pattern model.

The paper's workflow is fit-once / query-many: a model fitted on weeks of
traces is interrogated repeatedly for cluster summaries, convex
decompositions and region predictions.  :class:`ModelServer` is the serving
seam for that workflow.  It holds only the per-tower and per-cluster arrays
its replies read — tower ids, cluster labels, each cluster's region, the
Table-1 rows, each tower's total bytes and peak slot, and the whole-city
decomposition — and answers every query without ever re-running the fit.

A server is built from a bundle's arrays and manifest: from the bundle on
disk (:meth:`ModelServer.from_artifact`, which reads every array but the two
towers × slots grids, see :func:`repro.io.persist.read_serving_arrays`), or
from an in-memory fit (``ModelServer(model)``, through
:func:`repro.io.persist.bundle_contents`), by the same code.  Neither path
imports the fit stack.

Any tower's decomposition is a pure function of the fitted model, so the
server solves the whole city once, in one batched call, when it is built;
every query after that is a row lookup.  A server never changes: a new model
gets a new server.

Serving statistics are backed by a :class:`~repro.obs.metrics.MetricsRegistry`
(supply your own to aggregate across servers, or let the server own one):
queries served and a query-latency histogram, snapshotted by
:meth:`ModelServer.stats`.  An optional :class:`~repro.obs.trace.Tracer`
records one ``query:<name>`` span per query.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Mapping, Sequence

import numpy as np

from repro.core.results import percentage_table
from repro.decompose.batch import BatchDecomposition, decompose_features_batch
from repro.decompose.convex import ConvexDecomposition
from repro.io.persist import (
    GRID_ARRAYS,
    MANIFEST_NAME,
    PersistError,
    bundle_contents,
    decomposition_inputs,
    load_model,
    read_serving_arrays,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer
from repro.synth.regions import RegionType
from repro.utils.fingerprint import fingerprint

if TYPE_CHECKING:
    from repro.core.model import TrafficPatternModel
    from repro.core.results import ModelResult


@dataclass
class TowerPattern:
    """Everything the server knows about one tower's traffic pattern."""

    tower_id: int
    cluster: int
    region: RegionType | None
    total_bytes: float
    peak_slot: int

    def as_row(self) -> dict[str, object]:
        """Return a flat JSON/CSV-friendly summary row."""
        return {
            "tower_id": self.tower_id,
            "cluster": self.cluster + 1,
            "region": self.region.value if self.region else "unlabelled",
            "total_bytes": self.total_bytes,
            "peak_slot": self.peak_slot,
        }


def _whole_city(
    arrays: Mapping[str, np.ndarray], manifest: dict
) -> BatchDecomposition | None:
    """Decompose every tower onto the primary components in one batched call.

    The same solve as :meth:`~repro.core.model.TrafficPatternModel.decompose_all`;
    ``None`` when the fit produced no primary components.
    """
    features, representatives = decomposition_inputs(arrays.__getitem__, manifest)
    if representatives is None:
        return None
    spec = tuple(tuple(pair) for pair in manifest["config"]["decomposition_feature"])
    return decompose_features_batch(
        features.feature_matrix(spec), representatives, tower_ids=features.tower_ids
    )


class ModelServer:
    """Serve decompose / region / summary / pattern queries from one model.

    Parameters
    ----------
    model:
        A fitted :class:`~repro.core.model.TrafficPatternModel`.  Use
        :meth:`from_artifact` to serve a persisted bundle instead.
    tracer:
        Optional span tracer; each query records one ``query:<name>`` span.
        Defaults to the no-op tracer.
    metrics:
        Optional metrics registry backing the serving counters (pass a
        shared registry to aggregate several servers, or to export the
        counters alongside a trace).  The server creates a private one when
        omitted, so :meth:`stats` always works.

    Example
    -------
    >>> server = ModelServer.from_artifact("model_bundle")  # doctest: +SKIP
    >>> server.predict_region(42)                           # doctest: +SKIP
    <RegionType.OFFICE: 'office'>
    """

    def __init__(
        self,
        model: TrafficPatternModel,
        *,
        tracer: Tracer | NullTracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        result = model.result  # fail fast when not fitted
        arrays, manifest = bundle_contents(result, model.config)
        self._serve(arrays, manifest, tracer=tracer, metrics=metrics)
        self._result: ModelResult | None = result
        self._path: Path | None = None

    @classmethod
    def from_artifact(
        cls,
        path: str | Path,
        *,
        tracer: Tracer | NullTracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> ModelServer:
        """Serve a persisted model bundle, reading only the arrays replies need.

        Raises
        ------
        PersistError
            With a path-qualified one-line message when the bundle is
            missing, corrupt or from a newer schema.
        """
        bundle = Path(path)
        manifest, arrays = read_serving_arrays(bundle)
        server = cls.__new__(cls)
        try:
            server._serve(arrays, manifest, tracer=tracer, metrics=metrics)
        except (KeyError, TypeError, ValueError) as err:
            raise PersistError(f"{bundle / MANIFEST_NAME}: corrupt manifest: {err}") from None
        server._result = None
        server._path = bundle
        return server

    def _serve(
        self,
        arrays: Mapping[str, np.ndarray],
        manifest: dict,
        *,
        tracer: Tracer | NullTracer | None,
        metrics: MetricsRegistry | None,
    ) -> None:
        """Build the serving state from a bundle's arrays and manifest."""
        self._manifest = manifest
        self._tower_ids = arrays["vectorized.tower_ids"]
        self._row_of = {tower_id: row for row, tower_id in enumerate(self._tower_ids.tolist())}
        self._labels = arrays["clustering.labels"]
        self._total_bytes = arrays["raw.total_bytes"]
        self._peak_slot = arrays["raw.peak_slot"]
        self._num_days = int(manifest["window"]["num_days"])
        # First label wins, as ClusterLabeling.region_of reads it.
        self._regions: dict[int, RegionType] | None = None
        if manifest["labeling"] is not None:
            self._regions = {}
            labelled = zip(arrays["labeling.cluster_labels"].tolist(), manifest["labeling"]["regions"])
            for label, region in labelled:
                self._regions.setdefault(int(label), RegionType(region))
        self._table = percentage_table(self._labels, self.region_of_cluster)
        # The whole-city decomposition, one row per tower in model order.
        self._decomposition = _whole_city(arrays, manifest)
        if self._decomposition is not None and not np.array_equal(
            self._decomposition.tower_ids, self._tower_ids
        ):
            raise ValueError("frequency-feature rows are not in the model's tower order")
        fingerprints = manifest["extras"].get("stage_fingerprints")
        if fingerprints:
            blob = json.dumps(fingerprints, sort_keys=True)
        else:  # results of hand-built pipelines: digest the arrays served from
            blob = fingerprint(*(arrays[key] for key in sorted(arrays) if key not in GRID_ARRAYS))
        self._fingerprint = hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]
        self._result_lock = threading.Lock()
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._queries = self.metrics.counter("server.queries")
        self._latency = self.metrics.histogram("server.query_seconds")

    # -- introspection -------------------------------------------------

    @property
    def result(self) -> ModelResult:
        """The full fit result behind this server.

        A bundle-backed server loads the whole bundle on first access; serving
        never needs it.

        Raises
        ------
        PersistError
            If the bundle no longer matches the manifest the server was
            built from (it was rewritten since), or cannot be loaded.
        """
        with self._result_lock:
            if self._result is None:
                loaded = load_model(self._path)
                if loaded.manifest != self._manifest:
                    raise PersistError(
                        f"{self._path}: bundle changed since the server was built from it"
                    )
                self._result = loaded.result
            return self._result

    @property
    def fingerprint(self) -> str:
        """Short, stable content fingerprint of the served model.

        Derived from the fit's per-stage input fingerprints (persisted in
        every bundle manifest), so two bundles answer queries identically
        iff their fingerprints match; results without them (hand-built
        pipelines) are fingerprinted by the arrays served from.
        """
        return self._fingerprint

    @property
    def num_clusters(self) -> int:
        """Number of identified traffic patterns."""
        return len(self._table)

    @property
    def num_towers(self) -> int:
        """Number of towers the model can answer queries for."""
        return len(self._tower_ids)

    @property
    def num_days(self) -> int:
        """Length of the model's observation window, in days."""
        return self._num_days

    def tower_ids(self) -> list[int]:
        """Return every tower id the model can answer queries for."""
        return self._tower_ids.tolist()

    def has_tower(self, tower_id: int) -> bool:
        """Whether ``tower_id`` is known to the model."""
        return int(tower_id) in self._row_of

    def region_of_cluster(self, cluster_label: int) -> RegionType | None:
        """Return the functional region of a cluster, or ``None`` when unlabelled."""
        if self._regions is None:
            return None
        region = self._regions.get(int(cluster_label))
        if region is None:
            raise KeyError(f"cluster {cluster_label} has no label")
        return region

    def cluster_of_region(self, region: RegionType) -> int:
        """Return the cluster labelled ``region`` (the first, in labelling order).

        Raises
        ------
        KeyError
            If the model is unlabelled or no cluster is labelled ``region``.
        """
        for label, labelled in (self._regions or {}).items():
            if labelled is region:
                return label
        raise KeyError(f"no cluster labelled {region}")

    def towers_of_cluster(self, cluster_label: int) -> list[int]:
        """Return the ids of a cluster's towers, in model order."""
        return self._tower_ids[self._labels == int(cluster_label)].tolist()

    @property
    def has_components(self) -> bool:
        """Whether the model has primary components to decompose towers onto."""
        return self._decomposition is not None

    def percentage_table(self) -> list[dict[str, object]]:
        """Return Table 1: one ``{cluster, region, percentage}`` row per pattern."""
        return [dict(row) for row in self._table]

    # -- lookups -------------------------------------------------------

    def _row(self, tower_id: int) -> int:
        row = self._row_of.get(int(tower_id))
        if row is None:
            raise KeyError(f"tower {int(tower_id)} not present")
        return row

    def _whole_city(self) -> BatchDecomposition:
        if self._decomposition is None:
            raise RuntimeError(
                "no representative towers available; fit with enough clusters first"
            )
        return self._decomposition

    @contextmanager
    def _query(self, name: str) -> Iterator[None]:
        """Count one query, time it into the latency histogram, span it."""
        self._queries.inc()
        start = time.perf_counter()
        try:
            with self._tracer.span(f"query:{name}"):
                yield
        finally:
            self._latency.observe(time.perf_counter() - start)

    # -- queries -------------------------------------------------------

    def decompose(self, tower_id: int) -> ConvexDecomposition:
        """Return the convex decomposition of one tower.

        Raises
        ------
        RuntimeError
            If the model has no primary components.
        KeyError
            If the tower is unknown.
        """
        with self._query("decompose"):
            return self._whole_city().at(self._row(tower_id))

    def decompose_many(self, tower_ids: Sequence[int]) -> BatchDecomposition:
        """Return the decompositions of several towers, in the given order."""
        with self._query("decompose_many"):
            whole = self._whole_city()
            return whole.take(np.array([self._row(t) for t in tower_ids], dtype=int))

    def decompose_all(self) -> BatchDecomposition:
        """Return the decomposition of every tower (solved once, at construction)."""
        with self._query("decompose_all"):
            return self._whole_city()

    def predict_region(self, tower_id: int) -> RegionType:
        """Return the urban functional region inferred for one tower."""
        with self._query("predict_region"):
            if self._regions is None:
                raise RuntimeError("the model was fitted without geographic labelling")
            return self.region_of_cluster(int(self._labels[self._row(tower_id)]))

    def pattern_of(self, tower_id: int) -> TowerPattern:
        """Return the full pattern record of one tower."""
        with self._query("pattern_of"):
            row = self._row(tower_id)
            cluster = int(self._labels[row])
            return TowerPattern(
                tower_id=int(tower_id),
                cluster=cluster,
                region=self.region_of_cluster(cluster),
                total_bytes=float(self._total_bytes[row]),
                peak_slot=int(self._peak_slot[row]),
            )

    # -- serving statistics --------------------------------------------

    def stats(self) -> dict[str, object]:
        """Return cumulative serving counters (registry-backed).

        Stable schema::

            {
              "queries": int,                  # every query served
              "query_latency": {count, sum, min, max, p50, p95, p99},
            }
        """
        return {
            "queries": self._queries.snapshot(),
            "query_latency": self._latency.snapshot(),
        }
