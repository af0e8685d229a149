"""Stage 2 — hierarchical clustering (Section 3.2, pattern identifier)."""

from __future__ import annotations

from repro.cluster.hierarchical import AgglomerativeClustering
from repro.core.pipeline import PipelineContext
from repro.core.stages.vectorize import VectorizeStage
from repro.utils.fingerprint import fingerprint


class ClusterStage:
    """Fit the full dendrogram of the normalised traffic vectors.

    The merge-history backend (``auto``/``nn_chain``/``nn_chain_lowmem``)
    comes from ``ModelConfig.cluster_backend``; ``auto`` picks the O(n²)
    nearest-neighbor-chain engine, upgrading to the memory-bounded blocked
    engine above 20k towers.  The clusterer feeds the backend the feature matrix
    directly, so memory-bounded backends never see a pairwise matrix;
    ``ModelConfig.cluster_tile_size`` bounds their scan tiles.
    """

    name = "cluster"

    def fingerprint(self, context: PipelineContext) -> str | None:
        """Digest of the vectorize fingerprint + linkage/backend choice.

        The normalised vectors are a function of the vectorize stage's
        inputs, so its fingerprint stands for them: the vectors are never
        hashed.
        """
        upstream = context.fingerprints.get(VectorizeStage.name)
        if upstream is None or context.get("vectorized") is None:
            return None
        cfg = context.config
        return fingerprint(upstream, cfg.linkage.value, cfg.cluster_backend)

    def run(self, context: PipelineContext) -> None:
        cfg = context.config
        vectorized = context.require("vectorized")
        clusterer = AgglomerativeClustering(
            linkage=cfg.linkage,
            backend=cfg.cluster_backend,
            tile_size=cfg.cluster_tile_size,
        )
        dendrogram = clusterer.fit(vectorized.vectors)
        # Backend run counters land on the trace span only — never in the
        # persisted result — so saved bundles stay byte-identical whether or
        # not the fit was traced.
        span = context.tracer.current
        for key, value in clusterer.last_fit_stats.items():
            if isinstance(value, int):
                span.count(key, value)
            else:
                span.set(key, value)
        span.set("towers", int(vectorized.vectors.shape[0]))
        context.set("dendrogram", dendrogram, producer=self.name)
