"""Staged pipeline engine of the end-to-end model.

The paper's six-step fit (vectorize → cluster → tune → label → spectral →
decompose) is expressed as a sequence of :class:`PipelineStage` objects run
by a :class:`Pipeline` over a shared :class:`PipelineContext`.  The engine is
deliberately small:

* the **context** is a typed artifact store — stages publish results under
  well-known keys and later stages ``require`` them, with provenance tracked
  so a missing artifact names the stage that should have produced it;
* the **runner** opens one span per stage (on the context's tracer, or on
  a tracer local to the run when the context is untraced), keeps the spans
  in ``context.stage_spans`` and honours a stage's optional ``should_run``
  predicate (e.g. labelling is skipped without a city); a caller that
  wants other stages passes another stage list;
* runs are **resumable**: a stage may define
  ``fingerprint(context) -> str | None`` digesting its inputs.  The runner
  computes it inside the stage's span and records it in
  ``context.fingerprints``, and when the context is seeded with
  :class:`StageCache` entries (digest + outputs of a previous run, e.g.
  from a persisted model bundle) a stage whose current digest matches the
  cached one republishes the cached outputs instead of recomputing — the
  machinery behind cheap day-over-day model updates.

Fingerprints chain instead of re-hashing large arrays.  The towers × slots
grid is hashed once per run (:meth:`PipelineContext.traffic_digest`, inside
the vectorize span): vectorize and spectral fingerprint that digest, and
cluster and tune fingerprint the vectorize fingerprint, since the vectors
they read are a function of its inputs.  No stage hashes the normalised
vectors; label and decompose hash their own small inputs.

Everything is synchronous and in-process; the value is the seam it creates —
caching, batching or distributing a stage later means wrapping one object,
not editing a monolithic ``fit``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Protocol, runtime_checkable

from repro.core.config import ModelConfig
from repro.obs.trace import NULL_TRACER, NullTracer, Span, Tracer
from repro.synth.city import CityModel
from repro.synth.traffic import TowerTrafficMatrix


class PipelineError(RuntimeError):
    """A stage's inputs were missing or a pipeline was mis-assembled."""


class PipelineContext:
    """Shared, typed artifact store threaded through every stage.

    The fit inputs (``config``, ``traffic``, ``city``) are plain attributes;
    everything a stage produces goes through :meth:`set` / :meth:`require`
    so provenance and type expectations are checked at the hand-off points.
    """

    def __init__(
        self,
        *,
        config: ModelConfig,
        traffic: TowerTrafficMatrix | None = None,
        city: CityModel | None = None,
        tracer: Tracer | NullTracer | None = None,
    ) -> None:
        self.config = config
        self.traffic = traffic
        self.city = city
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.stage_spans: list[Span] = []
        self.reuse: dict[str, StageCache] = {}
        self.fingerprints: dict[str, str] = {}
        self._artifacts: dict[str, Any] = {}
        self._producers: dict[str, str] = {}
        self._traffic_digest: str | None = None

    def traffic_digest(self) -> str:
        """Return the content digest of ``traffic.traffic``, hashed once per context.

        It is :meth:`~repro.synth.traffic.TowerTrafficMatrix.digest`, the
        digest a bundle's manifest records for ``raw.traffic``.  The stages
        read the grid and never write it, so one pass serves every stage
        fingerprint of a run.
        """
        if self._traffic_digest is None:
            self._traffic_digest = self.traffic.digest()
        return self._traffic_digest

    def set(self, key: str, value: Any, *, producer: str | None = None) -> None:
        """Publish an artifact under ``key`` (recording the producing stage)."""
        self._artifacts[key] = value
        if producer is not None:
            self._producers[key] = producer

    def get(self, key: str, default: Any = None) -> Any:
        """Return the artifact under ``key`` or ``default`` when absent."""
        return self._artifacts.get(key, default)

    def require(self, key: str, expected_type: type | None = None) -> Any:
        """Return the artifact under ``key``, failing loudly when absent.

        Raises
        ------
        PipelineError
            If no stage has published ``key`` yet.
        TypeError
            If ``expected_type`` is given and the artifact is neither an
            instance of it nor ``None``.
        """
        if key not in self._artifacts:
            available = ", ".join(sorted(self._artifacts)) or "<none>"
            raise PipelineError(
                f"required artifact {key!r} has not been produced "
                f"(available: {available})"
            )
        value = self._artifacts[key]
        if expected_type is not None and value is not None:
            if not isinstance(value, expected_type):
                raise TypeError(
                    f"artifact {key!r} has type {type(value).__name__}, "
                    f"expected {expected_type.__name__}"
                )
        return value

    def producer_of(self, key: str) -> str | None:
        """Return the name of the stage that published ``key`` (if tracked)."""
        return self._producers.get(key)

    def keys(self) -> list[str]:
        """Return the published artifact keys (sorted)."""
        return sorted(self._artifacts)

    def __contains__(self, key: str) -> bool:
        return key in self._artifacts


@runtime_checkable
class PipelineStage(Protocol):
    """One named step of the model pipeline.

    A stage reads its inputs from the context and publishes its outputs back
    into it.  Stages may additionally define ``should_run(context) -> bool``
    to opt out at runtime (the runner records them as skipped).
    """

    name: str

    def run(self, context: PipelineContext) -> None:
        """Execute the stage against the shared context."""
        ...


@dataclass(frozen=True)
class StageCache:
    """Outputs of one previous stage run, keyed by its input fingerprint.

    Seed ``context.reuse[stage_name]`` with these (typically rebuilt from a
    persisted :class:`~repro.core.results.ModelResult`) to make a run
    resumable: a stage whose current ``fingerprint(context)`` equals
    :attr:`fingerprint` republishes :attr:`outputs` verbatim.
    """

    fingerprint: str
    outputs: Mapping[str, Any]


class Pipeline:
    """Ordered runner of :class:`PipelineStage` objects.

    Parameters
    ----------
    stages:
        The stages, executed in order; names must be unique.
    """

    def __init__(self, stages: Iterable[PipelineStage]) -> None:
        self.stages = list(stages)
        names = [stage.name for stage in self.stages]
        duplicates = {name for name in names if names.count(name) > 1}
        if duplicates:
            raise PipelineError(f"duplicate stage names: {sorted(duplicates)}")

    @property
    def stage_names(self) -> list[str]:
        """Names of the assembled stages, in execution order."""
        return [stage.name for stage in self.stages]

    def run(self, context: PipelineContext) -> PipelineContext:
        """Execute every stage in order, each inside its own span.

        The spans open on ``context.tracer``, or on a :class:`Tracer` local
        to the run when the context is untraced, and are kept in order in
        ``context.stage_spans``.  A stage whose ``should_run`` is false gets
        an empty span with the ``skipped`` attribute.  Inside the span of a
        stage defining ``fingerprint(context)``, its input digest is
        recorded in ``context.fingerprints``; when the digest matches a
        seeded ``context.reuse`` entry the cached outputs are republished
        and the span gets the ``reused`` attribute instead of the stage
        being executed.
        """
        context.stage_spans = []
        context.fingerprints = {}
        tracer = context.tracer if context.tracer.enabled else Tracer()
        for stage in self.stages:
            should_run = getattr(stage, "should_run", None)
            if should_run is not None and not should_run(context):
                with tracer.span(stage.name) as span:
                    span.set("skipped", True)
            else:
                with tracer.span(stage.name) as span:
                    _resume_or_run(stage, context, span)
            context.stage_spans.append(span)
        return context


def _resume_or_run(stage: PipelineStage, context: PipelineContext, span: Span) -> None:
    """Fingerprint ``stage``, then republish its cached outputs or run it."""
    fingerprint_fn = getattr(stage, "fingerprint", None)
    digest = fingerprint_fn(context) if fingerprint_fn is not None else None
    if digest is not None:
        context.fingerprints[stage.name] = digest
    cache = context.reuse.get(stage.name)
    if cache is not None and digest is not None and cache.fingerprint == digest:
        for key, value in cache.outputs.items():
            context.set(key, value, producer=stage.name)
        span.set("reused", True)
        return
    stage.run(context)
