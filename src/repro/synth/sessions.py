"""Session-level traffic log generation.

Produces raw per-connection records with the schema of the paper's operator
trace (anonymised device id, start/end time, tower id, bytes, technology) as
one columnar :class:`~repro.ingest.batch.RecordBatch`.  Aggregating the
generated records into 10-minute slots recovers, in expectation, the same
per-tower series as the profile-level generator, which is verified by
integration tests.  The session path exists so that the full ingestion
pipeline — deduplication, conflict resolution, geocoding, density
computation, vectorization — is exercised end to end on realistic input.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ingest.batch import NETWORK_CODES, RecordBatch
from repro.synth.activity import ActivityProfileLibrary
from repro.synth.towers import Tower
from repro.synth.users import User, users_by_anchor
from repro.utils.rng import ensure_rng
from repro.utils.timeutils import SLOT_SECONDS, SLOTS_PER_DAY, TimeWindow
from repro.utils.validation import check_fraction, check_positive


@dataclass(frozen=True)
class SessionGenerationConfig:
    """Configuration of the session-level generator.

    ``mean_bytes_per_session`` together with ``sessions_per_slot_scale``
    determines the absolute traffic level; defaults are chosen so a tower's
    aggregate traffic is on the same scale as its ``mean_amplitude``.
    """

    window: TimeWindow = field(default_factory=TimeWindow)
    sessions_per_slot_scale: float = 6.0
    mean_bytes_per_session: float = 5.0e6
    bytes_lognormal_sigma: float = 1.0
    mean_session_duration_s: float = 180.0
    lte_fraction: float = 0.7

    def __post_init__(self) -> None:
        check_positive(self.sessions_per_slot_scale, "sessions_per_slot_scale")
        check_positive(self.mean_bytes_per_session, "mean_bytes_per_session")
        check_positive(self.bytes_lognormal_sigma, "bytes_lognormal_sigma")
        check_positive(self.mean_session_duration_s, "mean_session_duration_s")
        check_fraction(self.lte_fraction, "lte_fraction")


def _role_codes_for_window(window: TimeWindow) -> np.ndarray:
    """Return which user anchor dominates a tower in each slot of the window.

    One role index per slot (indices into ``_ROLES``): on weekends
    ``leisure`` from 10:00 to 20:00 and ``home`` otherwise; on weekdays
    ``commute`` from 7:00 to 9:30 and 17:00 to 19:30, ``work`` from 9:30 to
    17:00 and ``home`` otherwise.  Roles only pick plausible user ids for
    sessions; the traffic *volume* is entirely driven by the activity
    template.
    """
    num_slots = window.num_slots
    slots = np.arange(num_slots)
    hours = (slots % SLOTS_PER_DAY) * 24.0 / SLOTS_PER_DAY
    weekend = np.array(
        [window.is_weekend(day) for day in range(window.num_days)], dtype=bool
    )
    weekend_slots = np.repeat(weekend, SLOTS_PER_DAY)

    codes = np.full(num_slots, _ROLES.index("home"), dtype=np.int64)
    codes[weekend_slots & (hours >= 10.0) & (hours < 20.0)] = _ROLES.index("leisure")
    weekday_slots = ~weekend_slots
    commute = ((hours >= 7.0) & (hours < 9.5)) | ((hours >= 17.0) & (hours < 19.5))
    codes[weekday_slots & commute] = _ROLES.index("commute")
    codes[weekday_slots & (hours >= 9.5) & (hours < 17.0)] = _ROLES.index("work")
    return codes


_ROLES = ("home", "work", "commute", "leisure")


def generate_session_batch(
    towers: list[Tower],
    users: list[User],
    config: SessionGenerationConfig | None = None,
    *,
    library: ActivityProfileLibrary | None = None,
    rng: int | np.random.Generator | None = None,
) -> RecordBatch:
    """Generate raw per-connection records for the whole observation window.

    Each tower draws a Poisson session count per slot, with a rate that
    follows its activity template scaled so its expected volume per slot
    matches its mean amplitude.  Each session gets a uniform start inside
    its slot, an exponential duration (cut at the window's end), a lognormal
    volume, a network and a user anchored to the tower in the slot's role
    (any user when the tower has none).  Every per-session quantity is
    drawn as an array, tower by tower.

    Parameters
    ----------
    towers, users:
        The synthetic city population.
    config:
        Generation configuration.
    library:
        Shared activity template library.
    rng:
        Seed or generator.

    Returns
    -------
    RecordBatch
        The records, sorted by ``start_s``.
    """
    if not towers:
        raise ValueError("cannot generate sessions without towers")
    if not users:
        raise ValueError("cannot generate sessions without users")
    cfg = config or SessionGenerationConfig()
    lib = library or ActivityProfileLibrary()
    generator = ensure_rng(rng)
    window = cfg.window

    anchor_groups = {
        role: users_by_anchor(users, role) for role in _ROLES
    }
    anchor_user_ids = {
        role: {
            tower_id: np.array([user.user_id for user in members], dtype=np.int64)
            for tower_id, members in groups.items()
        }
        for role, groups in anchor_groups.items()
    }
    all_user_ids = np.array([user.user_id for user in users], dtype=np.int64)
    role_codes = _role_codes_for_window(window)
    lte_code = NETWORK_CODES["LTE"]
    other_code = NETWORK_CODES["3G"]

    parts: list[RecordBatch] = []
    for tower in towers:
        template = lib.for_region_type(tower.region_type, mixture=tower.mixture)
        base = template.tile(window.num_days, start_weekday=window.start_weekday)
        rate = cfg.sessions_per_slot_scale * base
        session_counts = generator.poisson(rate)
        total = int(session_counts.sum())
        if total == 0:
            continue
        byte_scale = tower.mean_amplitude / (
            cfg.sessions_per_slot_scale * cfg.mean_bytes_per_session
        )

        slot_of_session = np.repeat(
            np.arange(window.num_slots, dtype=np.int64), session_counts
        )
        starts = slot_of_session * float(SLOT_SECONDS) + generator.random(
            total
        ) * float(SLOT_SECONDS)
        durations = generator.exponential(cfg.mean_session_duration_s, size=total)
        ends = np.minimum(starts + durations, float(window.num_seconds))
        volumes = (
            byte_scale
            * cfg.mean_bytes_per_session
            * generator.lognormal(
                mean=-0.5 * cfg.bytes_lognormal_sigma**2,
                sigma=cfg.bytes_lognormal_sigma,
                size=total,
            )
        )
        networks = np.where(
            generator.random(total) < cfg.lte_fraction, lte_code, other_code
        ).astype(np.uint8)

        user_ids = np.empty(total, dtype=np.int64)
        session_roles = role_codes[slot_of_session]
        for role_index, role in enumerate(_ROLES):
            mask = session_roles == role_index
            count = int(mask.sum())
            if count == 0:
                continue
            candidates = anchor_user_ids[role].get(tower.tower_id)
            pool = candidates if candidates is not None and candidates.size else all_user_ids
            user_ids[mask] = pool[generator.integers(0, pool.size, size=count)]

        part = RecordBatch(
            user_id=user_ids,
            tower_id=np.full(total, tower.tower_id, dtype=np.int64),
            start_s=starts,
            end_s=ends,
            bytes_used=volumes,
            network=networks,
        )
        parts.append(part)

    return RecordBatch.concat(parts).sort_by_start()
