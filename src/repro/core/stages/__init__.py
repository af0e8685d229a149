"""The six stages of the default traffic-pattern pipeline.

Each stage class wraps one step of the paper's fit (Sections 3–5) behind the
:class:`~repro.core.pipeline.PipelineStage` protocol; assemble them with
:func:`default_stages`, or pass a :class:`~repro.core.pipeline.Pipeline`
another list to drop or replace individual stages.
"""

from __future__ import annotations

from repro.core.stages.cluster import ClusterStage
from repro.core.stages.decompose import DecomposeStage, pure_cluster_labels
from repro.core.stages.label import LabelStage
from repro.core.stages.spectral import SpectralStage
from repro.core.stages.tune import TuneStage
from repro.core.stages.vectorize import VectorizeStage


def default_stages() -> list:
    """Return fresh instances of the paper's six pipeline stages, in order."""
    return [
        VectorizeStage(),
        ClusterStage(),
        TuneStage(),
        LabelStage(),
        SpectralStage(),
        DecomposeStage(),
    ]


__all__ = [
    "ClusterStage",
    "DecomposeStage",
    "LabelStage",
    "SpectralStage",
    "TuneStage",
    "VectorizeStage",
    "default_stages",
    "pure_cluster_labels",
]
