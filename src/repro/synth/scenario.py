"""One-call scenario builder.

A *scenario* bundles everything an experiment needs: the synthetic city, the
subscriber population, the per-tower traffic matrix, and (optionally) the raw
session-level records with injected corruption, as one record batch.  All
experiments in ``benchmarks/`` and ``examples/`` start from a scenario so
that scale and seeds are controlled in exactly one place.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ingest.batch import RecordBatch
from repro.synth.activity import ActivityProfileLibrary
from repro.synth.city import CityConfig, CityModel, build_city
from repro.synth.noise import CorruptionReport, LogCorruptionConfig, corrupt_batch
from repro.synth.sessions import SessionGenerationConfig, generate_session_batch
from repro.synth.towers import TowerPlacementConfig
from repro.synth.traffic import (
    TowerTrafficMatrix,
    TrafficGenerationConfig,
    generate_tower_traffic,
)
from repro.synth.users import User, UserPopulationConfig, generate_users
from repro.utils.rng import SeedSequenceFactory
from repro.utils.timeutils import TimeWindow


@dataclass(frozen=True)
class ScenarioConfig:
    """Top-level configuration of a synthetic scenario.

    Parameters
    ----------
    num_towers, num_users, num_days:
        Scale of the scenario.  The paper's scale (9,600 towers, 150,000
        users, 28 days) is reachable by changing these numbers only.
    seed:
        Root seed controlling every random choice in the scenario.
    generate_sessions:
        When true the raw session-level records (with corruption) are also
        generated (:meth:`Scenario.session_batch`), which is slower but
        exercises the ingestion pipeline.
    sessions_as_batch:
        Accepted only as ``True``, its default: sessions are always one
        :class:`~repro.ingest.batch.RecordBatch`.
    """

    num_towers: int = 600
    num_users: int = 5_000
    num_days: int = 28
    seed: int = 0
    generate_sessions: bool = False
    sessions_as_batch: bool = True
    traffic: TrafficGenerationConfig | None = None
    sessions: SessionGenerationConfig | None = None
    corruption: LogCorruptionConfig = field(default_factory=LogCorruptionConfig)

    def __post_init__(self) -> None:
        if not self.sessions_as_batch:
            raise ValueError(
                "sessions_as_batch=False selected the scalar session generator, which "
                "was removed; sessions are always generated as one RecordBatch"
            )

    def window(self) -> TimeWindow:
        """Return the observation window of the scenario."""
        return TimeWindow(num_days=self.num_days)


@dataclass
class Scenario:
    """A fully generated synthetic scenario."""

    config: ScenarioConfig
    city: CityModel
    users: list[User]
    traffic: TowerTrafficMatrix
    record_batch: RecordBatch | None = None
    corruption_report: CorruptionReport | None = None

    @property
    def window(self) -> TimeWindow:
        """The observation window of the scenario."""
        return self.traffic.window

    def session_batch(self) -> RecordBatch:
        """Return the session records (an empty batch when none were generated)."""
        return self.record_batch if self.record_batch is not None else RecordBatch.empty()

    def ground_truth_labels(self) -> np.ndarray:
        """Return ground-truth cluster labels aligned with the traffic rows."""
        return np.array(
            [self.city.tower(tid).region_type.index for tid in self.traffic.tower_ids],
            dtype=int,
        )


def generate_scenario(config: ScenarioConfig | None = None) -> Scenario:
    """Generate a complete synthetic scenario from a configuration."""
    cfg = config or ScenarioConfig()
    factory = SeedSequenceFactory(cfg.seed)
    window = cfg.window()

    city_config = CityConfig(
        towers=TowerPlacementConfig(num_towers=cfg.num_towers),
        seed=factory.seed("city"),
    )
    city = build_city(city_config)

    users = generate_users(
        city.towers,
        UserPopulationConfig(num_users=cfg.num_users),
        rng=factory.generator("users"),
    )

    library = ActivityProfileLibrary()
    traffic_config = cfg.traffic or TrafficGenerationConfig(window=window)
    traffic = generate_tower_traffic(
        city.towers,
        traffic_config,
        library=library,
        rng=factory.generator("traffic"),
    )

    record_batch: RecordBatch | None = None
    corruption_report: CorruptionReport | None = None
    if cfg.generate_sessions:
        session_batch = generate_session_batch(
            city.towers,
            users,
            cfg.sessions or SessionGenerationConfig(window=window),
            library=library,
            rng=factory.generator("sessions"),
        )
        record_batch, corruption_report = corrupt_batch(
            session_batch, cfg.corruption, rng=factory.generator("corruption")
        )

    return Scenario(
        config=cfg,
        city=city,
        users=users,
        traffic=traffic,
        record_batch=record_batch,
        corruption_report=corruption_report,
    )
