"""Tests for repro.synth.poi."""

import numpy as np
import pytest

from repro.synth.poi import (
    POICategory,
    POIGenerationConfig,
    generate_pois,
    poi_category_totals,
    poi_coordinate_arrays,
)
from repro.synth.regions import RegionType, generate_regions


@pytest.fixture(scope="module")
def regions():
    return generate_regions(rng=4)


@pytest.fixture(scope="module")
def pois(regions):
    return generate_pois(regions, rng=4)


class TestPOICategory:
    def test_four_categories(self):
        assert len(POICategory.ordered()) == 4

    def test_indices(self):
        assert POICategory.RESIDENT.index == 0
        assert POICategory.ENTERTAINMENT.index == 3


class TestGeneration:
    def test_every_region_has_pois(self, regions, pois):
        regions_with_pois = {poi.region_id for poi in pois}
        assert regions_with_pois == {region.region_id for region in regions}

    def test_positions_inside_owning_region(self, regions, pois):
        by_id = {region.region_id: region for region in regions}
        for poi in pois[:500]:
            assert by_id[poi.region_id].contains(poi.lat, poi.lon)

    def test_reproducible(self, regions):
        a = generate_pois(regions, rng=9)
        b = generate_pois(regions, rng=9)
        assert len(a) == len(b)
        assert all(x.lat == y.lat and x.category == y.category for x, y in zip(a, b))

    def test_poi_ids_unique(self, pois):
        ids = [poi.poi_id for poi in pois]
        assert len(ids) == len(set(ids))

    def test_pure_regions_dominated_by_matching_category(self, regions, pois):
        by_region: dict[int, list] = {}
        for poi in pois:
            by_region.setdefault(poi.region_id, []).append(poi)
        for region in regions:
            if region.region_type is RegionType.COMPREHENSIVE:
                continue
            counts = np.zeros(4)
            for poi in by_region[region.region_id]:
                counts[poi.category.index] += 1
            expected_index = {
                RegionType.RESIDENT: 0,
                RegionType.TRANSPORT: 1,
                RegionType.OFFICE: 2,
                RegionType.ENTERTAINMENT: 3,
            }[region.region_type]
            if counts.sum() >= 20:  # only assert when the sample is meaningful
                assert np.argmax(counts) == expected_index

    def test_scale_parameter_scales_counts(self, regions):
        small = generate_pois(regions, POIGenerationConfig(poi_per_region_scale=0.3), rng=5)
        large = generate_pois(regions, POIGenerationConfig(poi_per_region_scale=1.5), rng=5)
        assert len(large) > 2 * len(small)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            POIGenerationConfig(poi_per_region_scale=0.0)
        with pytest.raises(ValueError):
            POIGenerationConfig(dominant_fraction=1.0)


class TestHelpers:
    def test_coordinate_arrays_shapes(self, pois):
        lats, lons, cats = poi_coordinate_arrays(pois)
        assert lats.shape == lons.shape == cats.shape == (len(pois),)

    def test_coordinate_arrays_empty(self):
        lats, lons, cats = poi_coordinate_arrays([])
        assert lats.size == 0 and lons.size == 0 and cats.size == 0
        assert lats.dtype == lons.dtype == np.float64 and cats.dtype == np.int_

    def test_coordinate_arrays_hold_each_pois_attributes(self, pois):
        lats, lons, cats = poi_coordinate_arrays(pois)
        assert lats.tobytes() == np.array([poi.lat for poi in pois], dtype=float).tobytes()
        assert lons.tobytes() == np.array([poi.lon for poi in pois], dtype=float).tobytes()
        assert cats.dtype == np.int_
        assert cats.tolist() == [poi.category.index for poi in pois]
        assert set(cats.tolist()) == set(range(len(POICategory.ordered())))

    def test_category_totals_sum(self, pois):
        totals = poi_category_totals(pois)
        assert sum(totals.values()) == len(pois)
        assert all(category in totals for category in POICategory.ordered())
