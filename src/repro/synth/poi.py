"""Point-of-interest (POI) layer of the synthetic city.

The paper labels clusters with urban functional regions by counting four
categories of POI (resident, transport, office, entertainment) within 200 m
of each tower (Tables 2 and 3, Fig. 9) and by computing an NTF-IDF statistic
over POI counts (Table 6).  The synthetic POI layer is generated from the
same region ground truth that drives traffic generation, so the correlation
between traffic patterns and POI composition that the paper relies on holds
by construction — which is exactly the property required to exercise the
labelling and validation code paths.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.synth.regions import Region, RegionType
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_positive


class POICategory(enum.Enum):
    """The four POI categories used by the paper."""

    RESIDENT = "resident"
    TRANSPORT = "transport"
    OFFICE = "office"
    ENTERTAINMENT = "entertainment"

    @classmethod
    def ordered(cls) -> tuple["POICategory", ...]:
        """Return the categories in the paper's column order."""
        return (cls.RESIDENT, cls.TRANSPORT, cls.OFFICE, cls.ENTERTAINMENT)

    @property
    def index(self) -> int:
        """Return the 0-based column index of this category."""
        return _CATEGORY_INDEX[self]


_CATEGORY_INDEX = {category: index for index, category in enumerate(POICategory.ordered())}
_CATEGORY_INDEX_BY_VALUE = {category.value: index for category, index in _CATEGORY_INDEX.items()}

#: Mapping from pure region type to the matching POI category.
REGION_TO_POI = {
    RegionType.RESIDENT: POICategory.RESIDENT,
    RegionType.TRANSPORT: POICategory.TRANSPORT,
    RegionType.OFFICE: POICategory.OFFICE,
    RegionType.ENTERTAINMENT: POICategory.ENTERTAINMENT,
}


@dataclass(frozen=True)
class POI:
    """A single point of interest."""

    poi_id: int
    category: POICategory
    lat: float
    lon: float
    region_id: int


@dataclass(frozen=True)
class POIGenerationConfig:
    """Configuration of the POI layer.

    ``base_counts`` controls how many POIs a region of each type contains on
    average; the numbers follow the qualitative magnitudes of Table 2 of the
    paper (residential neighbourhoods have hundreds of residential POIs,
    transport hubs have only a handful of transport POIs, business districts
    have ~1,000 office POIs and entertainment complexes ~2,000 entertainment
    POIs).
    """

    poi_per_region_scale: float = 1.0
    dominant_fraction: float = 0.72
    background_dirichlet_alpha: float = 1.0
    base_counts: dict[RegionType, int] | None = None

    def __post_init__(self) -> None:
        check_positive(self.poi_per_region_scale, "poi_per_region_scale")
        if not 0.0 < self.dominant_fraction < 1.0:
            raise ValueError(
                f"dominant_fraction must be in (0, 1), got {self.dominant_fraction}"
            )
        check_positive(self.background_dirichlet_alpha, "background_dirichlet_alpha")

    def counts_for(self, region_type: RegionType) -> int:
        """Return the expected POI count for a region of ``region_type``."""
        defaults = {
            RegionType.RESIDENT: 200,
            RegionType.TRANSPORT: 120,
            RegionType.OFFICE: 400,
            RegionType.ENTERTAINMENT: 350,
            RegionType.COMPREHENSIVE: 180,
        }
        table = dict(defaults)
        if self.base_counts:
            table.update(self.base_counts)
        return max(1, int(round(table[region_type] * self.poi_per_region_scale)))


def _category_probabilities(
    region: Region, config: POIGenerationConfig, rng: np.random.Generator
) -> np.ndarray:
    """Return the POI category distribution of ``region``.

    Pure regions are dominated by their matching category (with a configurable
    dominant fraction); comprehensive regions follow their ground-truth
    mixture smoothed by a small uniform background.
    """
    categories = POICategory.ordered()
    if region.region_type is RegionType.COMPREHENSIVE:
        mixture = np.asarray(region.mixture, dtype=float)
        background = rng.dirichlet(np.full(len(categories), config.background_dirichlet_alpha))
        probabilities = 0.8 * mixture + 0.2 * background
    else:
        dominant = REGION_TO_POI[region.region_type]
        probabilities = np.full(
            len(categories), (1.0 - config.dominant_fraction) / (len(categories) - 1)
        )
        probabilities[dominant.index] = config.dominant_fraction
    total = probabilities.sum()
    if total <= 0:
        return np.full(len(categories), 1.0 / len(categories))
    return probabilities / total


def generate_pois(
    regions: list[Region],
    config: POIGenerationConfig | None = None,
    *,
    rng: int | np.random.Generator | None = None,
) -> list[POI]:
    """Generate the POI layer for a list of regions.

    Each region receives a Poisson-distributed number of POIs around its
    type-specific expected count, with category proportions dominated by the
    region's functional type (or mixture for comprehensive regions) and
    positions uniform within the region rectangle.
    """
    cfg = config or POIGenerationConfig()
    generator = ensure_rng(rng)
    categories = POICategory.ordered()

    pois: list[POI] = []
    poi_id = 0
    for region in regions:
        expected = cfg.counts_for(region.region_type)
        count = int(generator.poisson(expected))
        if count == 0:
            count = 1
        probabilities = _category_probabilities(region, cfg, generator)
        category_draws = generator.choice(len(categories), size=count, p=probabilities)
        for draw in category_draws:
            lat, lon = region.sample_point(generator)
            pois.append(
                POI(
                    poi_id=poi_id,
                    category=categories[int(draw)],
                    lat=lat,
                    lon=lon,
                    region_id=region.region_id,
                )
            )
            poi_id += 1
    return pois


def poi_coordinate_arrays(pois: list[POI]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return ``(lats, lons, category_indices)`` arrays for a POI list.

    Each category is looked up by its value, read from the member's
    ``_value_`` attribute: hashing the ``Enum`` member, or reading its
    ``value`` property, per POI costs more than the rest of the conversion.
    """
    count = len(pois)
    lats = np.fromiter((poi.lat for poi in pois), dtype=float, count=count)
    lons = np.fromiter((poi.lon for poi in pois), dtype=float, count=count)
    cats = np.fromiter(
        (_CATEGORY_INDEX_BY_VALUE[poi.category._value_] for poi in pois), dtype=int, count=count
    )
    return lats, lons, cats


def poi_category_totals(pois: list[POI]) -> dict[POICategory, int]:
    """Return the total number of POIs per category."""
    totals = {category: 0 for category in POICategory.ordered()}
    for poi in pois:
        totals[poi.category] += 1
    return totals
