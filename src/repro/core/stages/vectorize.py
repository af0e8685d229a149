"""Stage 1 — traffic vectorization (Section 3.2, traffic vectorizer)."""

from __future__ import annotations

from repro.core.pipeline import PipelineContext
from repro.utils.fingerprint import fingerprint
from repro.vectorize.vectorizer import TrafficVectorizer


class VectorizeStage:
    """Normalise each tower's 10-minute slot series in ``context.traffic``.

    Records reach the slot grid before the pipeline runs
    (:meth:`~repro.core.model.TrafficPatternModel.fit_batches` and
    :meth:`~repro.core.model.TrafficPatternModel.update` fold them with
    :func:`repro.vectorize.aggregate.accumulate_batches`).
    """

    name = "vectorize"

    def fingerprint(self, context: PipelineContext) -> str:
        """Digest of the input matrix (its grid digest) + normalisation."""
        traffic = context.traffic
        if traffic is None:
            raise ValueError("the vectorize stage needs context.traffic")
        return fingerprint(
            context.traffic_digest(),
            traffic.tower_ids,
            traffic.window.num_days,
            traffic.window.start_weekday,
            context.config.normalization.value,
        )

    def run(self, context: PipelineContext) -> None:
        vectorizer = TrafficVectorizer(method=context.config.normalization)
        vectorized = vectorizer.from_matrix(context.traffic)
        span = context.tracer.current
        span.set("towers", int(vectorized.vectors.shape[0]))
        span.set("slots", int(vectorized.vectors.shape[1]))
        context.set("vectorized", vectorized, producer=self.name)
