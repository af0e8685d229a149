"""In-process query server over a fitted (or loaded) traffic-pattern model.

The paper's workflow is fit-once / query-many: a model fitted on weeks of
traces is interrogated repeatedly for cluster summaries, convex
decompositions and region predictions.  :class:`ModelServer` is the serving
seam for that workflow — it wraps a :class:`~repro.core.model.TrafficPatternModel`
(freshly fitted, or loaded from a :mod:`repro.io.persist` bundle) and
answers every query without ever re-running the fit.

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

import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from repro.core.model import TrafficPatternModel
from repro.core.results import ClusterSummary, ModelResult
from repro.decompose.batch import BatchDecomposition
from repro.decompose.convex import ConvexDecomposition
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer
from repro.synth.regions import RegionType


@dataclass
class TowerPattern:
    """Everything the server knows about one tower's traffic pattern."""

    tower_id: int
    cluster: int
    region: RegionType | None
    raw_series: np.ndarray
    normalized_vector: np.ndarray

    def as_row(self) -> dict[str, object]:
        """Return a flat JSON/CSV-friendly summary row."""
        return {
            "tower_id": self.tower_id,
            "cluster": self.cluster + 1,
            "region": self.region.value if self.region else "unlabelled",
            "total_bytes": float(self.raw_series.sum()),
            "peak_slot": int(np.argmax(self.raw_series)),
        }


class ModelServer:
    """Serve decompose / region / summary / pattern queries from one model.

    Parameters
    ----------
    model:
        A fitted :class:`TrafficPatternModel` (``fit`` already called, or
        constructed via :meth:`TrafficPatternModel.load`).
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
        self._model = model
        self._result = model.result  # fail fast when not fitted
        self._row_of = {int(t): row for row, t in enumerate(self._result.tower_ids)}
        # The whole-city decomposition, one row per tower in model order;
        # None when the fit produced no primary components.
        self._decomposition: BatchDecomposition | None = None
        if self._result.representatives is not None:
            self._decomposition = model.decompose_all()
            if not np.array_equal(self._decomposition.tower_ids, self._result.tower_ids):
                raise ValueError("frequency-feature rows are not in the model's tower order")
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._queries = self.metrics.counter("server.queries")
        self._latency = self.metrics.histogram("server.query_seconds")

    @classmethod
    def from_artifact(
        cls,
        path: str | Path,
        *,
        tracer: Tracer | NullTracer | None = None,
        metrics: MetricsRegistry | None = None,
        mmap: bool = False,
    ) -> "ModelServer":
        """Open a persisted model bundle and serve queries against it.

        ``mmap=True`` memory-maps the bundle arrays so a hot-swapping
        front-end can load the next model without doubling peak RSS.
        """
        return cls(
            TrafficPatternModel.load(path, mmap=mmap), tracer=tracer, metrics=metrics
        )

    # -- introspection -------------------------------------------------

    @property
    def model(self) -> TrafficPatternModel:
        """The wrapped model."""
        return self._model

    @property
    def result(self) -> ModelResult:
        """The underlying fit result."""
        return self._result

    @property
    def num_clusters(self) -> int:
        """Number of identified traffic patterns."""
        return self._result.num_clusters

    def tower_ids(self) -> list[int]:
        """Return every tower id the model can answer queries for."""
        return [int(tower_id) for tower_id in self._result.tower_ids]

    def has_tower(self, tower_id: int) -> bool:
        """Whether ``tower_id`` is known to the model."""
        return int(tower_id) in self._row_of

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

    def summaries(self) -> list[ClusterSummary]:
        """Return one :class:`ClusterSummary` per identified pattern."""
        with self._query("summaries"):
            return self._result.summaries()

    def cluster_summary(self, cluster_label: int) -> ClusterSummary:
        """Return the summary of one cluster.

        Raises
        ------
        KeyError
            If ``cluster_label`` does not name an identified pattern.
        """
        with self._query("cluster_summary"):
            if not 0 <= cluster_label < self._result.num_clusters:
                raise KeyError(
                    f"cluster {cluster_label} not identified "
                    f"(have 0..{self._result.num_clusters - 1})"
                )
            return self._result.summaries()[cluster_label]

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
            result = self._result
            if result.labeling is None:
                raise RuntimeError("the model was fitted without geographic labelling")
            return result.labeling.region_of(int(result.labels[self._row(tower_id)]))

    def pattern_of(self, tower_id: int) -> TowerPattern:
        """Return the full pattern record of one tower."""
        with self._query("pattern_of"):
            result = self._result
            row = self._row(tower_id)
            cluster = int(result.labels[row])
            return TowerPattern(
                tower_id=int(tower_id),
                cluster=cluster,
                region=result.region_of_cluster(cluster),
                raw_series=result.vectorized.raw.traffic[row],
                normalized_vector=result.vectorized.vectors[row],
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
