"""Stage 5 — frequency-domain features (Sections 5.1–5.2)."""

from __future__ import annotations

from repro.core.pipeline import PipelineContext
from repro.spectral.components import principal_components_for_window
from repro.spectral.features import FEATURE_ALGORITHM, extract_frequency_features
from repro.utils.fingerprint import fingerprint


class SpectralStage:
    """Extract amplitude/phase features at the principal frequency components."""

    name = "spectral"

    def fingerprint(self, context: PipelineContext) -> str | None:
        """Digest of the raw traffic (its grid digest) + window + feature
        normalisation + the feature algorithm."""
        traffic = context.traffic
        if traffic is None:
            return None
        return fingerprint(
            context.traffic_digest(),
            traffic.tower_ids,
            traffic.window.num_days,
            traffic.window.start_weekday,
            context.config.feature_normalization.value,
            FEATURE_ALGORITHM,
        )

    def run(self, context: PipelineContext) -> None:
        traffic = context.traffic
        if traffic is None:
            raise ValueError("the spectral stage needs context.traffic")
        cfg = context.config
        components = principal_components_for_window(traffic.window)
        frequency_features = extract_frequency_features(
            traffic.traffic,
            traffic.tower_ids,
            components,
            normalization=cfg.feature_normalization,
        )
        span = context.tracer.current
        span.set("towers", int(frequency_features.amplitudes.shape[0]))
        span.set("window_days", int(traffic.window.num_days))
        context.set("components", components, producer=self.name)
        context.set("frequency_features", frequency_features, producer=self.name)
