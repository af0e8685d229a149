"""Stage 3 — cut selection (Section 3.2, metric tuner)."""

from __future__ import annotations

from repro.cluster.hierarchical import ClusteringResult
from repro.cluster.tuner import MetricTuner, TuningCurve
from repro.core.pipeline import PipelineContext
from repro.core.stages.vectorize import VectorizeStage
from repro.utils.fingerprint import fingerprint


class TuneStage:
    """Cut the dendrogram — at a fixed ``num_clusters`` or at the validity
    optimum — and publish the resulting :class:`ClusteringResult`."""

    name = "tune"

    def fingerprint(self, context: PipelineContext) -> str | None:
        """Digest of the dendrogram, the vectorize fingerprint (standing for
        the vectors the validity index reads) + cut-selection configuration."""
        dendrogram = context.get("dendrogram")
        upstream = context.fingerprints.get(VectorizeStage.name)
        if dendrogram is None or upstream is None or context.get("vectorized") is None:
            return None
        cfg = context.config
        return fingerprint(
            dendrogram.merges,
            dendrogram.num_observations,
            upstream,
            cfg.num_clusters,
            cfg.validity_index,
            cfg.min_clusters,
            cfg.max_clusters,
        )

    def run(self, context: PipelineContext) -> None:
        cfg = context.config
        vectorized = context.require("vectorized")
        dendrogram = context.require("dendrogram")

        tuning_curve: TuningCurve | None = None
        if cfg.num_clusters is not None:
            labels = dendrogram.labels_at_num_clusters(cfg.num_clusters)
            threshold = None
        else:
            tuner = MetricTuner(
                index=cfg.validity_index,
                min_clusters=cfg.min_clusters,
                max_clusters=cfg.max_clusters,
            )
            labels, tuning_curve = tuner.select(vectorized.vectors, dendrogram)
            _, _, threshold = tuning_curve.best()

        clustering = ClusteringResult(
            labels=labels,
            dendrogram=dendrogram,
            linkage=cfg.linkage,
            threshold=threshold,
        )
        span = context.tracer.current
        if tuning_curve is not None:
            span.count("candidates", len(tuning_curve.num_clusters))
            span.count("clusters_scored", tuner.last_stats["clusters_scored"])
        span.set("num_clusters", int(len(set(int(label) for label in labels))))
        context.set("clustering", clustering, producer=self.name)
        context.set("tuning_curve", tuning_curve, producer=self.name)
