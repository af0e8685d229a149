"""Profile-level tower traffic generation.

Produces, for every tower, the amount of traffic served in each 10-minute
slot of the observation window.  This is the fast path used by large
parameter sweeps and by every experiment that does not need raw
per-connection logs (those come from :mod:`repro.synth.sessions`).

The per-tower series is built as::

    traffic[t] = amplitude * template[t]  * day_factor[day(t)]
                 * (1 + gaussian noise)   + burst noise

where ``template`` is the ground-truth weekly activity template of the
tower's region (tiled over the window), ``day_factor`` adds mild day-to-day
variation, the multiplicative Gaussian term models small-scale fluctuations
and the burst term models occasional flash-crowd spikes.  Traffic is clipped
at zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.synth.activity import ActivityProfileLibrary
from repro.synth.towers import Tower
from repro.utils.fingerprint import fingerprint_array
from repro.utils.rng import ensure_rng
from repro.utils.timeutils import SLOTS_PER_DAY, TimeWindow
from repro.utils.validation import check_fraction, check_positive


@dataclass(frozen=True)
class TrafficGenerationConfig:
    """Configuration of the profile-level traffic generator."""

    window: TimeWindow = field(default_factory=TimeWindow)
    multiplicative_noise_std: float = 0.10
    day_to_day_noise_std: float = 0.05
    burst_probability_per_slot: float = 0.002
    burst_relative_magnitude: float = 1.5

    def __post_init__(self) -> None:
        check_positive(self.multiplicative_noise_std, "multiplicative_noise_std")
        check_positive(self.day_to_day_noise_std, "day_to_day_noise_std")
        check_fraction(self.burst_probability_per_slot, "burst_probability_per_slot")
        check_positive(self.burst_relative_magnitude, "burst_relative_magnitude")


@dataclass
class TowerTrafficMatrix:
    """Per-tower traffic series, the central in-memory dataset of the library.

    Attributes
    ----------
    tower_ids:
        Array of tower identifiers, one per row of ``traffic``.
    traffic:
        Array of shape ``(num_towers, num_slots)`` holding traffic volumes in
        bytes per 10-minute slot.
    window:
        The observation window the columns cover.
    """

    tower_ids: np.ndarray
    traffic: np.ndarray
    window: TimeWindow

    #: ``(grid, digest)`` of the read-only grid :meth:`digest` last hashed.
    _digest = None

    def __post_init__(self) -> None:
        self.tower_ids = np.asarray(self.tower_ids, dtype=int)
        self.traffic = np.asarray(self.traffic, dtype=float)
        if self.traffic.ndim != 2:
            raise ValueError(f"traffic must be 2-D, got shape {self.traffic.shape}")
        if self.tower_ids.shape[0] != self.traffic.shape[0]:
            raise ValueError(
                "tower_ids length must match the number of traffic rows: "
                f"{self.tower_ids.shape[0]} vs {self.traffic.shape[0]}"
            )
        if self.traffic.shape[1] != self.window.num_slots:
            raise ValueError(
                f"traffic has {self.traffic.shape[1]} slots but the window "
                f"defines {self.window.num_slots}"
            )
        if self.traffic.size:
            # Two reductions and no (towers × slots) temporary: NaN
            # propagates into the minimum, ±inf shows at either end.
            low, high = self.traffic.min(), self.traffic.max()
            if not (np.isfinite(low) and np.isfinite(high)):
                row, slot = np.argwhere(~np.isfinite(self.traffic))[0]
                raise ValueError(
                    f"traffic of tower {self.tower_ids[row]} at slot {slot} is "
                    f"{self.traffic[row, slot]}; volumes must be finite"
                )
            if low < 0:
                raise ValueError("traffic volumes must be non-negative")

    @property
    def num_towers(self) -> int:
        """Number of towers (rows)."""
        return int(self.traffic.shape[0])

    @property
    def num_slots(self) -> int:
        """Number of 10-minute slots (columns)."""
        return int(self.traffic.shape[1])

    def digest(self) -> str:
        """Return the content digest of ``traffic`` (:func:`fingerprint_array`).

        A grid that cannot change is hashed once: when ``traffic`` owns its
        buffer and is read-only (the model makes the grids it aggregates
        read-only), the digest is kept and returned while ``traffic`` is
        still that read-only array.  Any other grid, including a read-only
        view of a writable one, is hashed on every call.
        """
        grid = self.traffic
        sealed = grid.base is None and not grid.flags.writeable
        if sealed and self._digest is not None and self._digest[0] is grid:
            return self._digest[1]
        digest = fingerprint_array(grid)
        if sealed:
            self._digest = (grid, digest)
        return digest

    def row_of(self, tower_id: int) -> int:
        """Return the row index of ``tower_id``."""
        matches = np.nonzero(self.tower_ids == tower_id)[0]
        if matches.size == 0:
            raise KeyError(f"tower {tower_id} not present in the traffic matrix")
        return int(matches[0])

    def series(self, tower_id: int) -> np.ndarray:
        """Return the traffic series of ``tower_id``."""
        return self.traffic[self.row_of(tower_id)]

    def aggregate(self) -> np.ndarray:
        """Return the city-wide aggregate traffic per slot."""
        return self.traffic.sum(axis=0)

    def aggregate_daily(self) -> np.ndarray:
        """Return the city-wide aggregate traffic per day."""
        return self.aggregate().reshape(self.window.num_days, SLOTS_PER_DAY).sum(axis=1)

    def subset(self, rows: np.ndarray) -> "TowerTrafficMatrix":
        """Return a new matrix restricted to the given row indices."""
        rows_arr = np.asarray(rows, dtype=int)
        return TowerTrafficMatrix(
            tower_ids=self.tower_ids[rows_arr],
            traffic=self.traffic[rows_arr],
            window=self.window,
        )


def generate_tower_traffic(
    towers: list[Tower],
    config: TrafficGenerationConfig | None = None,
    *,
    library: ActivityProfileLibrary | None = None,
    rng: int | np.random.Generator | None = None,
) -> TowerTrafficMatrix:
    """Generate the per-tower traffic matrix for a list of towers.

    Parameters
    ----------
    towers:
        Towers of the synthetic city (carry ground-truth mixtures and mean
        amplitudes).
    config:
        Noise and window configuration.
    library:
        Activity template library (shared so templates are only built once).
    rng:
        Seed or generator.
    """
    if not towers:
        raise ValueError("cannot generate traffic without towers")
    cfg = config or TrafficGenerationConfig()
    lib = library or ActivityProfileLibrary()
    generator = ensure_rng(rng)
    window = cfg.window
    num_slots = window.num_slots

    traffic = np.zeros((len(towers), num_slots))
    tower_ids = np.zeros(len(towers), dtype=int)
    for row, tower in enumerate(towers):
        template = lib.for_region_type(tower.region_type, mixture=tower.mixture)
        base = template.tile(window.num_days, start_weekday=window.start_weekday)
        day_factors = 1.0 + generator.normal(0.0, cfg.day_to_day_noise_std, size=window.num_days)
        day_factors = np.clip(day_factors, 0.2, None)
        per_slot_day_factor = np.repeat(day_factors, SLOTS_PER_DAY)
        noise = 1.0 + generator.normal(0.0, cfg.multiplicative_noise_std, size=num_slots)
        noise = np.clip(noise, 0.0, None)
        series = tower.mean_amplitude * base * per_slot_day_factor * noise

        bursts = generator.random(num_slots) < cfg.burst_probability_per_slot
        if np.any(bursts):
            series[bursts] += (
                tower.mean_amplitude
                * cfg.burst_relative_magnitude
                * generator.random(int(bursts.sum()))
            )
        traffic[row] = np.clip(series, 0.0, None)
        tower_ids[row] = tower.tower_id

    return TowerTrafficMatrix(tower_ids=tower_ids, traffic=traffic, window=window)
