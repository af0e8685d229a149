"""The paper's primary contribution: a three-dimensional traffic-pattern model.

:class:`~repro.core.model.TrafficPatternModel` combines

* **time** — normalised 10-minute traffic vectors, hierarchically clustered
  into a small number of patterns selected by the Davies–Bouldin index;
* **location** — urban-functional-region labels derived from POI profiles;
* **frequency** — amplitude/phase features at the principal spectral
  components and the convex decomposition of any tower onto the four primary
  components;

into one fitted object, matching Sections 3–5 of the paper.  The
configuration dataclasses live in :mod:`repro.core.config`, the result
containers in :mod:`repro.core.results`; the fit itself runs on the staged
pipeline engine of :mod:`repro.core.pipeline` whose six stage classes live
in :mod:`repro.core.stages`.
"""

from repro.utils.lazy import lazy_exports

_EXPORTS = {
    "config": ("ModelConfig",),
    "model": ("TrafficPatternModel",),
    "pipeline": (
        "Pipeline",
        "PipelineContext",
        "PipelineError",
        "PipelineStage",
        "StageCache",
    ),
    "results": ("ClusterSummary", "ModelResult"),
    "stages": ("default_stages",),
}

__getattr__ = lazy_exports(__name__, _EXPORTS)

__all__ = sorted(name for names in _EXPORTS.values() for name in names)
