"""Stage 4 — urban-functional-region labelling (Section 3.3)."""

from __future__ import annotations

import numpy as np

from repro.core.pipeline import PipelineContext
from repro.geo.labeling import label_clusters
from repro.geo.poi_profile import compute_poi_profiles
from repro.utils.fingerprint import fingerprint


class LabelStage:
    """Assign functional regions to the clusters from POI profiles.

    Runs when a city model (tower coordinates + POI layer) is present in the
    context, or — on resumed runs — when a previously computed POI profile
    is seeded as the ``poi_profile_prior`` artifact (POI geography is static
    day over day, so an incremental update can re-label fresh cluster cuts
    without the city being supplied again).  With neither available the
    runner records the stage as skipped.
    """

    name = "label"

    def should_run(self, context: PipelineContext) -> bool:
        return context.city is not None or context.get("poi_profile_prior") is not None

    def fingerprint(self, context: PipelineContext) -> str | None:
        """Digest of the prior POI profile + cluster labels (resume path).

        When a city is supplied the stage always recomputes (profiling the
        live POI layer is the point); only the prior-profile path is cheap
        enough to fingerprint, and it is exactly the path incremental
        updates take.
        """
        if context.city is not None:
            return None
        prior = context.get("poi_profile_prior")
        clustering = context.get("clustering")
        if prior is None or clustering is None:
            return None
        return fingerprint(
            prior.counts, prior.tower_ids, prior.radius_km, clustering.labels
        )

    def run(self, context: PipelineContext) -> None:
        city = context.city
        cfg = context.config
        vectorized = context.require("vectorized")
        clustering = context.require("clustering")

        if city is not None:
            coordinates = np.array(
                [(city.tower(tid).lat, city.tower(tid).lon) for tid in vectorized.tower_ids]
            )
            with context.tracer.span("poi_profile") as span:
                poi_profile = compute_poi_profiles(
                    vectorized.tower_ids,
                    coordinates[:, 0],
                    coordinates[:, 1],
                    city.pois,
                    radius_km=cfg.poi_radius_km,
                )
                span.count("towers", poi_profile.num_towers)
                span.count("pois", len(city.pois))
                span.count("pois_in_range", int(poi_profile.counts.sum()))
                span.count("pairs_measured", poi_profile.pairs_measured)
        else:
            poi_profile = context.require("poi_profile_prior")
        labeling = label_clusters(poi_profile, clustering.labels)
        span = context.tracer.current
        span.set("source", "city" if city is not None else "prior")
        span.count("clusters_labelled", len(labeling.cluster_labels))
        context.set("poi_profile", poi_profile, producer=self.name)
        context.set("labeling", labeling, producer=self.name)
