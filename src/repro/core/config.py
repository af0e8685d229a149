"""Configuration of the end-to-end traffic-pattern model."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.cluster.backends import BACKEND_CHOICES, DEFAULT_TILE_SIZE
from repro.cluster.linkage import Linkage
from repro.vectorize.normalize import NormalizationMethod


@dataclass(frozen=True)
class ModelConfig:
    """Configuration of :class:`repro.core.model.TrafficPatternModel`.

    Parameters
    ----------
    normalization:
        Per-tower normalisation applied before clustering (the paper uses
        z-score normalisation).
    linkage:
        Linkage criterion of the hierarchical clustering (the paper uses
        average linkage).
    cluster_backend:
        Merge-history engine of the clustering stage: ``"auto"`` (default —
        the O(n²) nearest-neighbor-chain backend, upgraded to the
        memory-bounded ``nn_chain_lowmem`` engine above 20k towers),
        ``"nn_chain"`` or ``"nn_chain_lowmem"``.  Backends produce
        identical cuts on tie-free distances and differ only in speed and
        memory; exact ties may be broken differently.
    cluster_tile_size:
        Edge length of the blocked distance tiles used by the
        memory-bounded clustering backend (1024² float64 ≈ 8 MB per tile);
        ignored by the O(n²) backends.  Results are equivalent for every
        tile size — this only trades peak memory against BLAS call count.
    validity_index:
        Validity index minimised/maximised by the metric tuner
        (``"davies_bouldin"`` in the paper).
    min_clusters, max_clusters:
        Range of candidate cluster counts swept by the tuner.
    num_clusters:
        When set, the tuner is bypassed and the dendrogram is cut at exactly
        this number of clusters.
    poi_radius_km:
        Radius used for per-tower POI counting (0.2 km in the paper).
    feature_normalization:
        Normalisation applied before the per-tower DFT feature extraction.
    decomposition_feature:
        Which (kind, component) pairs form the feature vector used by the
        convex decomposition; the default matches the paper's
        ``(A_day, P_day, A_halfday)``.
    workers:
        Default worker count for the streaming ingest→aggregate paths
        (:meth:`~repro.core.model.TrafficPatternModel.fit_batches` and
        :meth:`~repro.core.model.TrafficPatternModel.update`): ``0``
        (default) streams serially in-process — the equivalence reference —
        ``-1`` uses all cores, ``>= 1`` fans chunks out to that many
        multiprocessing workers with shared-memory shard grids (see
        :mod:`repro.vectorize.parallel`).  Parallel results are
        deterministic for a fixed worker count but may differ from the
        serial matrix at the ulp level.
    """

    normalization: NormalizationMethod = NormalizationMethod.ZSCORE
    linkage: Linkage = Linkage.AVERAGE
    cluster_backend: str = "auto"
    cluster_tile_size: int = DEFAULT_TILE_SIZE
    validity_index: str = "davies_bouldin"
    min_clusters: int = 2
    max_clusters: int = 10
    num_clusters: int | None = None
    poi_radius_km: float = 0.2
    feature_normalization: NormalizationMethod = NormalizationMethod.MAX
    decomposition_feature: tuple[tuple[str, str], ...] = field(
        default=(
            ("amplitude", "day"),
            ("phase", "day"),
            ("amplitude", "half_day"),
        )
    )
    workers: int = 0

    def __post_init__(self) -> None:
        if self.cluster_backend not in BACKEND_CHOICES:
            raise ValueError(
                f"unknown cluster_backend {self.cluster_backend!r}; "
                f"choose from {list(BACKEND_CHOICES)}"
            )
        if self.cluster_tile_size <= 0:
            raise ValueError(
                f"cluster_tile_size must be positive, got {self.cluster_tile_size}"
            )
        if self.min_clusters < 2:
            raise ValueError(f"min_clusters must be at least 2, got {self.min_clusters}")
        if self.max_clusters < self.min_clusters:
            raise ValueError(
                f"max_clusters ({self.max_clusters}) must be >= min_clusters "
                f"({self.min_clusters})"
            )
        if self.num_clusters is not None and self.num_clusters < 1:
            raise ValueError(f"num_clusters must be positive, got {self.num_clusters}")
        if not math.isfinite(self.poi_radius_km) or self.poi_radius_km <= 0:
            raise ValueError(
                f"poi_radius_km must be positive and finite, got {self.poi_radius_km}"
            )
        if not self.decomposition_feature:
            raise ValueError("decomposition_feature must not be empty")
        if self.workers < -1:
            raise ValueError(
                f"workers must be >= -1 (0 = serial, -1 = all cores), "
                f"got {self.workers}"
            )
