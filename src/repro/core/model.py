"""The end-to-end traffic-pattern model.

:class:`TrafficPatternModel` is a thin facade over the staged pipeline
engine (:mod:`repro.core.pipeline`).  The paper's full fit runs as six
composable stages (:mod:`repro.core.stages`):

1. **Vectorize** — aggregate traffic to 10-minute slots per tower and
   normalise each tower's vector (Section 3.2, traffic vectorizer).
2. **Cluster** — hierarchical clustering of the vectors via a pluggable
   backend (Section 3.2, pattern identifier).
3. **Tune** — pick the number of patterns minimising the Davies–Bouldin
   index (Section 3.2, metric tuner), unless a fixed number is configured.
4. **Label** — assign urban functional regions to the clusters from POI
   profiles (Section 3.3), when a city/POI layer is supplied.
5. **Spectral** — extract amplitude/phase features at the principal
   frequency components (Section 5.1–5.2).
6. **Decompose** — select the most representative tower of each pure cluster
   and expose convex decompositions of arbitrary towers (Section 5.3).

Override :meth:`TrafficPatternModel.build_pipeline` (or assemble a
:class:`~repro.core.pipeline.Pipeline` directly) to skip or replace stages.

Fitted models persist as on-disk bundles (:meth:`TrafficPatternModel.save` /
:meth:`TrafficPatternModel.load`, format in :mod:`repro.io.persist`) and
refresh incrementally: :meth:`TrafficPatternModel.update` scatter-adds new
record batches onto the stored slot grid and re-runs only the stages whose
input fingerprints changed.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from repro.core.config import ModelConfig
from repro.core.pipeline import Pipeline, PipelineContext, StageCache
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer
from repro.core.results import ModelResult
from repro.core.stages import default_stages
from repro.decompose.batch import BatchDecomposition, decompose_features_batch
from repro.decompose.convex import ConvexDecomposition
from repro.decompose.mixture import TimeDomainMixture, mixture_time_series
from repro.ingest.batch import RecordBatch
from repro.synth.city import CityModel
from repro.synth.regions import RegionType
from repro.synth.traffic import TowerTrafficMatrix
from repro.utils.timeutils import TimeWindow
from repro.vectorize.aggregate import (
    TowerRowIndex,
    accumulate_batches,
    aggregate_batches,
)


class TrafficPatternModel:
    """Fit the paper's three-dimensional traffic-pattern model.

    Parameters
    ----------
    config:
        Model configuration; defaults reproduce the paper's choices
        (z-score vectors, average linkage, Davies–Bouldin tuning, 200 m POI
        radius, ``(A_day, P_day, A_halfday)`` decomposition features).

    Example
    -------
    >>> from repro.synth import generate_scenario, ScenarioConfig
    >>> from repro.core import TrafficPatternModel
    >>> scenario = generate_scenario(ScenarioConfig(num_towers=120, seed=1))
    >>> model = TrafficPatternModel()
    >>> result = model.fit(scenario.traffic, city=scenario.city)
    >>> result.num_clusters
    5
    """

    def __init__(self, config: ModelConfig | None = None) -> None:
        self.config = config or ModelConfig()
        self._result: ModelResult | None = None

    @property
    def result(self) -> ModelResult:
        """Return the last fit result.

        Raises
        ------
        RuntimeError
            If the model has not been fitted yet.
        """
        if self._result is None:
            raise RuntimeError("the model has not been fitted yet; call fit() first")
        return self._result

    def build_pipeline(self) -> Pipeline:
        """Assemble the default six-stage pipeline.

        Subclasses (or callers constructing their own model) can override
        this to skip or replace stages; :meth:`fit` runs whatever pipeline
        this returns.
        """
        return Pipeline(default_stages())

    def fit(
        self,
        traffic: TowerTrafficMatrix,
        *,
        city: CityModel | None = None,
        tracer: Tracer | NullTracer | None = None,
    ) -> ModelResult:
        """Fit the model on a per-tower traffic matrix.

        The fit makes the grid ``traffic.traffic`` read-only, in place, so
        the result keeps the grid it was fitted on and a save (or a later
        fit of the same matrix) reuses the fit's digest of it.  A grid that
        is a view of another array is first replaced in ``traffic`` by a
        copy, which leaves the viewed array writable.

        Parameters
        ----------
        traffic:
            Per-tower 10-minute traffic matrix (from the synthetic generator
            or from aggregating a real trace).
        city:
            Optional city model providing tower coordinates and the POI
            layer; required for the geographic labelling step (skipped when
            absent).
        tracer:
            Optional span tracer (:class:`repro.obs.Tracer`): the fit runs
            under a ``fit`` root span with one child span per pipeline
            stage.  Defaults to the no-op tracer (no overhead, identical
            outputs).
        """
        if traffic.traffic.base is not None:
            traffic.traffic = traffic.traffic.copy()
        traffic.traffic.flags.writeable = False
        tracer = tracer if tracer is not None else NULL_TRACER
        with tracer.span("fit") as span:
            span.set("towers", int(traffic.tower_ids.shape[0]))
            context = PipelineContext(
                config=self.config, traffic=traffic, city=city, tracer=tracer
            )
            return self._run_pipeline(context)

    def fit_batches(
        self,
        batches: RecordBatch | Iterable[RecordBatch],
        window: TimeWindow,
        tower_ids: Sequence[int],
        *,
        city: CityModel | None = None,
        workers: int = 0,
        prepare=None,
        tracer: Tracer | NullTracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> ModelResult:
        """Fit the model on a stream of record batches (out-of-core).

        Each batch is scattered into the accumulator matrix as it arrives,
        so traces larger than memory can be fitted; ``tower_ids`` must be
        known up front (typically from the station directory) and give the
        row order.  A whole trace in memory is one batch, passed as it is.
        Batches must be cleaned — pass
        ``prepare=repro.ingest.dedup.clean_chunk`` to clean each chunk on
        the fly, or clean them with :func:`repro.ingest.dedup.clean_batch`
        first — otherwise duplicates and conflicting copies inflate the
        matrix silently.  ``workers`` is ignored: records reach the grid by
        one serial path (:func:`repro.vectorize.aggregate.accumulate_batches`),
        so no keyword changes the fitted arrays.

        ``tracer``/``metrics`` thread the optional telemetry plane through
        the ingest (an ``ingest`` child span under the ``fit`` root) and the
        pipeline stages.
        """
        tracer = tracer if tracer is not None else NULL_TRACER
        # Build the context inline rather than delegating to fit(): the
        # ingest span must live under the same "fit" root as the stages.
        with tracer.span("fit") as span:
            with tracer.span("ingest"):
                matrix = aggregate_batches(
                    batches,
                    window,
                    tower_ids,
                    prepare=prepare,
                    tracer=tracer,
                    metrics=metrics,
                )
            # The grid is the model's own and complete: read-only, it is
            # hashed once for the fit and its save (TowerTrafficMatrix.digest).
            matrix.traffic.flags.writeable = False
            span.set("towers", int(matrix.tower_ids.shape[0]))
            context = PipelineContext(
                config=self.config, traffic=matrix, city=city, tracer=tracer
            )
            return self._run_pipeline(context)

    # ------------------------------------------------------------------
    # Persistence and incremental updates
    # ------------------------------------------------------------------

    def save(self, path: str | Path) -> Path:
        """Persist the fitted model as an on-disk bundle (NPZ + manifest).

        The bundle round-trips bit-for-bit: :meth:`load` reconstructs a
        model answering every query identically.  See
        :mod:`repro.io.persist` for the format.
        """
        from repro.io.persist import save_model

        return save_model(self.result, self.config, path)

    @classmethod
    def load(cls, path: str | Path, *, mmap: bool = False) -> TrafficPatternModel:
        """Reconstruct a fitted model from a bundle written by :meth:`save`.

        The returned model carries the persisted configuration and result;
        queries (:meth:`decompose`, :meth:`predict_region`, …) work
        immediately, and :meth:`update` folds new traffic in without
        refitting from zero.  ``mmap=True`` opens the arrays as read-only
        memory maps (lazy page-in, no RSS doubling during a hot-swap); see
        :func:`repro.io.persist.load_model`.
        """
        from repro.io.persist import load_model

        loaded = load_model(path, mmap=mmap)
        model = cls(loaded.config)
        model._result = loaded.result
        return model

    def update(
        self,
        batches: RecordBatch | Iterable[RecordBatch],
        *,
        city: CityModel | None = None,
        workers: int = 0,
        prepare=None,
        tracer: Tracer | NullTracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> ModelResult:
        """Fold new record batches into the fitted model (incremental fit).

        The new batches — typically one fresh day of cleaned traces — are
        scatter-added onto a copy of the stored slot grid by the same call
        :meth:`fit_batches` makes
        (:func:`repro.vectorize.aggregate.accumulate_batches`).  That
        continues the exact accumulation sequence a full re-aggregation of
        the concatenated trace would perform, so the merged matrix (and
        every downstream cut, on tie-free distances) is bit-for-bit
        identical to a full refit.  Only the downstream stages whose input
        fingerprints changed are re-run; unchanged stages republish their
        previous outputs (``extras["stages_reused"]`` lists them).

        Towers absent from the stored grid are ignored and the observation
        window is fixed at fit time — records starting past its end
        contribute nothing.  ``extras["update_stats"]`` on the returned
        result reports how many of the incoming records actually landed on
        the grid, so callers can detect a trace that silently missed the
        window entirely.  ``workers``, ``prepare``, ``tracer`` and
        ``metrics`` work as in :meth:`fit_batches`.  A city is only needed
        to recompute POI profiles from scratch; when omitted, the persisted
        POI profile re-labels the fresh cluster cut.
        """
        result = self.result
        base = result.vectorized.raw
        merged = TowerTrafficMatrix(
            tower_ids=base.tower_ids.copy(),
            traffic=base.traffic.copy(),
            window=base.window,
        )
        tracer = tracer if tracer is not None else NULL_TRACER
        with tracer.span("update") as root:
            with tracer.span("ingest"):
                records_seen, records_folded = accumulate_batches(
                    merged.traffic,
                    TowerRowIndex(merged.tower_ids),
                    batches,
                    prepare=prepare,
                    tracer=tracer,
                    metrics=metrics,
                )
            merged.traffic.flags.writeable = False
            root.set("towers", int(merged.tower_ids.shape[0]))

            context = PipelineContext(
                config=self.config, traffic=merged, city=city, tracer=tracer
            )
            if city is None and result.poi_profile is not None:
                context.set("poi_profile_prior", result.poi_profile, producer="resume")
            context.reuse = self._resume_caches(result)
            updated = self._run_pipeline(context)
        updated.extras["update_stats"] = {
            "records_seen": records_seen,
            "records_folded": records_folded,
        }
        return updated

    def _resume_caches(self, result: ModelResult) -> dict[str, StageCache]:
        """Rebuild per-stage output caches from a previous result.

        Keyed by the input fingerprints the previous run recorded; a stage
        whose inputs have not changed republishes these outputs instead of
        recomputing.
        """
        fingerprints = result.extras.get("stage_fingerprints", {})
        outputs_by_stage: dict[str, dict] = {
            "vectorize": {"vectorized": result.vectorized},
            "cluster": {"dendrogram": result.clustering.dendrogram},
            "tune": {
                "clustering": result.clustering,
                "tuning_curve": result.tuning_curve,
            },
            "spectral": {
                "components": result.components,
                "frequency_features": result.frequency_features,
            },
            "decompose": {"representatives": result.representatives},
        }
        if result.labeling is not None and result.poi_profile is not None:
            outputs_by_stage["label"] = {
                "poi_profile": result.poi_profile,
                "labeling": result.labeling,
            }
        return {
            name: StageCache(fingerprint=fingerprints[name], outputs=outputs)
            for name, outputs in outputs_by_stage.items()
            if name in fingerprints
        }

    def _run_pipeline(self, context: PipelineContext) -> ModelResult:
        """Run the assembled pipeline and collect the :class:`ModelResult`."""
        self.build_pipeline().run(context)
        vectorized = context.require("vectorized")
        spans = context.stage_spans
        skipped = [span.name for span in spans if span.attributes.get("skipped")]
        self._result = ModelResult(
            window=vectorized.window,
            vectorized=vectorized,
            clustering=context.require("clustering"),
            tuning_curve=context.get("tuning_curve"),
            labeling=context.get("labeling"),
            poi_profile=context.get("poi_profile"),
            components=context.require("components"),
            frequency_features=context.require("frequency_features"),
            representatives=context.get("representatives"),
            extras={
                "decomposition_feature": self.config.decomposition_feature,
                "stage_timings": {
                    span.name: 0.0 if span.name in skipped else span.wall_seconds
                    for span in spans
                },
                "stages_skipped": skipped,
                "stages_reused": [span.name for span in spans if span.attributes.get("reused")],
                "stage_fingerprints": dict(context.fingerprints),
            },
        )
        return self._result

    # ------------------------------------------------------------------
    # Post-fit analysis helpers
    # ------------------------------------------------------------------

    def _decomposition_inputs(self) -> tuple[ModelResult, np.ndarray]:
        """Return ``(result, feature_matrix)``, failing fast without components."""
        result = self.result
        if result.representatives is None:
            raise RuntimeError(
                "no representative towers available; fit with enough clusters first"
            )
        feature_matrix = result.frequency_features.feature_matrix(
            self.config.decomposition_feature
        )
        return result, feature_matrix

    def decompose(self, tower_id: int) -> ConvexDecomposition:
        """Return the convex decomposition of one tower onto the primary components."""
        return self.decompose_towers([tower_id]).at(0)

    def decompose_towers(self, tower_ids: Sequence[int]) -> BatchDecomposition:
        """Decompose several towers in one batched simplex solve.

        Raises
        ------
        KeyError
            If any id in ``tower_ids`` is unknown to the model.
        """
        result, feature_matrix = self._decomposition_inputs()
        ids = np.array([int(tower_id) for tower_id in tower_ids], dtype=int)
        rows = np.array(
            [result.frequency_features.row_of(int(tower_id)) for tower_id in ids],
            dtype=int,
        )
        return decompose_features_batch(
            feature_matrix[rows], result.representatives, tower_ids=ids
        )

    def decompose_all(self) -> BatchDecomposition:
        """Decompose every tower of the model in one vectorized call.

        The whole-city counterpart of :meth:`decompose`: one call to the
        batched active-set kernel returns coefficients ``(n, k)``, residuals
        ``(n,)`` and projections ``(n, d)`` for all towers at once.
        """
        result, feature_matrix = self._decomposition_inputs()
        return decompose_features_batch(
            feature_matrix,
            result.representatives,
            tower_ids=result.frequency_features.tower_ids,
        )

    def decompose_in_time_domain(self, tower_id: int) -> TimeDomainMixture:
        """Return the Fig. 19-style time-domain mixture of one tower."""
        result = self.result
        decomposition = self.decompose(tower_id)
        patterns = {
            int(label): result.vectorized.raw.traffic[
                result.vectorized.row_of(int(rep_tower_id))
            ]
            for label, rep_tower_id in zip(
                result.representatives.cluster_labels, result.representatives.tower_ids
            )
        }
        target = result.vectorized.raw.traffic[result.vectorized.row_of(tower_id)]
        return mixture_time_series(decomposition, patterns, target)

    def predict_region(self, tower_id: int) -> RegionType:
        """Return the urban functional region inferred for one tower."""
        result = self.result
        if result.labeling is None:
            raise RuntimeError("the model was fitted without geographic labelling")
        row = result.vectorized.row_of(tower_id)
        return result.labeling.region_of(int(result.labels[row]))
