"""Tests for the geo package (POI profiles, TF-IDF, labelling, grids, validation)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from repro.geo.grid import cluster_density_maps, densest_point_of_cluster, towers_in_cell
from repro.geo.labeling import assign_regions, label_accuracy, label_clusters
from repro.geo.poi_profile import POIProfile, compute_poi_profiles, normalized_poi_by_cluster, poi_share_by_cluster
from repro.geo.tfidf import compute_ntf_idf, compute_tf_idf, ntf_idf_of_towers
from repro.geo.validation import macro_validation_table, validate_case_study
from repro.synth.poi import POI, POICategory
from repro.synth.regions import RegionType
from repro.utils.geometry import GridSpec


@pytest.fixture(scope="module")
def poi_profile(scenario):
    lats, lons = scenario.city.tower_coordinates()
    return compute_poi_profiles(
        scenario.traffic.tower_ids, lats, lons, scenario.city.pois, radius_km=0.2
    )


class TestPOIProfile:
    def test_shape(self, scenario, poi_profile):
        assert poi_profile.counts.shape == (scenario.city.num_towers, 4)
        assert poi_profile.num_towers == scenario.city.num_towers

    def test_counts_non_negative(self, poi_profile):
        assert np.all(poi_profile.counts >= 0)

    def test_counts_of_and_dominant(self, scenario, poi_profile):
        tower_id = int(scenario.traffic.tower_ids[0])
        counts = poi_profile.counts_of(tower_id)
        assert set(counts) == set(POICategory.ordered())
        dominant = poi_profile.dominant_category(tower_id)
        assert counts[dominant] == max(counts.values())

    def test_unknown_tower_rejected(self, poi_profile):
        with pytest.raises(KeyError):
            poi_profile.row_of(10**6)

    def test_manual_radius_counting(self):
        pois = [
            POI(poi_id=0, category=POICategory.OFFICE, lat=31.2001, lon=121.5001, region_id=0),
            POI(poi_id=1, category=POICategory.OFFICE, lat=31.5, lon=121.9, region_id=0),
            POI(poi_id=2, category=POICategory.RESIDENT, lat=31.2, lon=121.5, region_id=0),
        ]
        profile = compute_poi_profiles(
            np.array([7]), np.array([31.2]), np.array([121.5]), pois, radius_km=0.2
        )
        counts = profile.counts_of(7)
        assert counts[POICategory.OFFICE] == 1  # only the nearby office POI
        assert counts[POICategory.RESIDENT] == 1

    def test_towers_dominated_by_their_region_category(self, scenario, poi_profile):
        truth = scenario.ground_truth_labels()
        expected_category = {0: 0, 1: 1, 2: 2, 3: 3}  # pure region index → POI column
        hits, total = 0, 0
        for row in range(scenario.city.num_towers):
            if truth[row] == RegionType.COMPREHENSIVE.index:
                continue
            if poi_profile.counts[row].sum() < 10:
                continue
            total += 1
            if int(np.argmax(poi_profile.counts[row])) == expected_category[truth[row]]:
                hits += 1
        assert total > 0
        assert hits / total > 0.7

    def test_invalid_inputs(self, scenario):
        lats, lons = scenario.city.tower_coordinates()
        with pytest.raises(ValueError):
            compute_poi_profiles(
                scenario.traffic.tower_ids[:-1], lats, lons, scenario.city.pois
            )
        with pytest.raises(ValueError):
            compute_poi_profiles(
                scenario.traffic.tower_ids, lats, lons, scenario.city.pois, radius_km=0.0
            )

    @pytest.mark.parametrize("radius", [float("nan"), float("inf")])
    def test_non_finite_radius_rejected(self, scenario, radius):
        lats, lons = scenario.city.tower_coordinates()
        with pytest.raises(ValueError, match="radius_km must be positive and finite"):
            compute_poi_profiles(
                scenario.traffic.tower_ids, lats, lons, scenario.city.pois, radius_km=radius
            )
        with pytest.raises(ValueError, match="radius_km must be positive and finite"):
            POIProfile(tower_ids=np.arange(2), counts=np.zeros((2, 4)), radius_km=radius)


class TestNormalizedPOITables:
    def test_table_shape_and_range(self, scenario, poi_profile):
        labels = scenario.ground_truth_labels()
        table = normalized_poi_by_cluster(poi_profile, labels)
        assert table.shape == (5, 4)
        assert np.all(table >= 0) and np.all(table <= 1.0)

    def test_dominant_entries_match_pure_clusters(self, scenario, poi_profile):
        labels = scenario.ground_truth_labels()
        table = normalized_poi_by_cluster(poi_profile, labels)
        # Pure cluster i (ground truth) should have its largest column at i.
        for region_index in range(4):
            assert int(np.argmax(table[region_index])) == region_index

    def test_share_rows_sum_to_one(self, scenario, poi_profile):
        labels = scenario.ground_truth_labels()
        shares = poi_share_by_cluster(poi_profile, labels)
        assert np.allclose(shares.sum(axis=1), 1.0)


class TestTfIdf:
    def test_tf_idf_non_negative(self, poi_profile):
        assert np.all(compute_tf_idf(poi_profile) >= 0)

    def test_ntf_idf_rows_sum_to_one_or_zero(self, poi_profile):
        ntf = compute_ntf_idf(poi_profile)
        sums = ntf.sum(axis=1)
        assert np.all((np.isclose(sums, 1.0)) | (np.isclose(sums, 0.0)))

    def test_ubiquitous_type_gets_zero_idf(self):
        counts = np.array([[5.0, 1.0], [3.0, 0.0], [10.0, 0.0]])
        counts = np.hstack([counts, np.zeros((3, 2))])
        profile = POIProfile(tower_ids=np.arange(3), counts=counts, radius_km=0.2)
        tf_idf = compute_tf_idf(profile)
        assert np.all(tf_idf[:, 0] == 0.0)  # type 0 appears at every tower
        assert tf_idf[0, 1] > 0.0

    def test_ntf_idf_of_towers_order(self, scenario, poi_profile):
        ids = scenario.traffic.tower_ids[[3, 1]]
        rows = ntf_idf_of_towers(poi_profile, ids)
        full = compute_ntf_idf(poi_profile)
        assert np.array_equal(rows[0], full[3])
        assert np.array_equal(rows[1], full[1])


class TestLabeling:
    def test_ground_truth_clusters_labelled_correctly(self, scenario, poi_profile):
        labels = scenario.ground_truth_labels()
        labeling = label_clusters(poi_profile, labels)
        assert labeling.region_of(0) is RegionType.RESIDENT
        assert labeling.region_of(1) is RegionType.TRANSPORT
        assert labeling.region_of(2) is RegionType.OFFICE
        assert labeling.region_of(3) is RegionType.ENTERTAINMENT
        assert labeling.region_of(4) is RegionType.COMPREHENSIVE

    def test_label_accuracy_is_perfect_on_ground_truth(self, scenario, poi_profile):
        labels = scenario.ground_truth_labels()
        labeling = label_clusters(poi_profile, labels)
        assert label_accuracy(labeling, labels, labels) == 1.0

    def test_cluster_of_region_round_trip(self, scenario, poi_profile):
        labels = scenario.ground_truth_labels()
        labeling = label_clusters(poi_profile, labels)
        for region in RegionType.ordered():
            cluster = labeling.cluster_of(region)
            assert labeling.region_of(cluster) is region

    def test_per_tower_regions(self, scenario, poi_profile):
        labels = scenario.ground_truth_labels()
        labeling = label_clusters(poi_profile, labels)
        regions = labeling.per_tower_regions(labels[:10])
        assert len(regions) == 10
        assert all(isinstance(r, RegionType) for r in regions)

    def test_unknown_cluster_raises(self, scenario, poi_profile):
        labels = scenario.ground_truth_labels()
        labeling = label_clusters(poi_profile, labels)
        with pytest.raises(KeyError):
            labeling.region_of(99)

    def test_four_cluster_labelling_has_no_forced_comprehensive(self, scenario, poi_profile):
        labels = scenario.ground_truth_labels().copy()
        # Merge comprehensive into resident to simulate a 4-cluster cut.
        labels[labels == 4] = 0
        labeling = label_clusters(poi_profile, labels)
        regions = set(labeling.region_types)
        assert len(regions) == 4


@st.composite
def tie_free_scores(draw):
    """A (k × 4) score matrix on which every assignment has a distinct total.

    Entry (i, j) is ``(a[i, j] · M + w(i, j)) / 2³²`` with drawn integers
    ``a`` and a tie-breaking weight ``w`` whose sum over a full assignment
    is that assignment's digits in base k (k ≥ 4: the cluster of each
    region) or base 4 (k < 4: the region of each cluster), below ``M``.
    Totals of four entries stay below 2⁵³ · 2⁻³², so they are exact.
    """
    k = draw(st.integers(1, 30))
    a = np.array(draw(st.lists(st.integers(0, 1000), min_size=4 * k, max_size=4 * k)))
    i, j = np.indices((k, 4))
    if k >= 4:
        weight, bound = i * k**j, k**4
    else:
        weight, bound = j * 4**i, 4**k
    return (a.reshape(k, 4) * bound + weight) / 2.0**32


class TestAssignRegions:
    @settings(max_examples=300, deadline=None)
    @given(scores=tie_free_scores())
    def test_matches_linear_sum_assignment_without_ties(self, scores):
        rows, cols = linear_sum_assignment(scores, maximize=True)
        pairs = [(i, j) for i, j in enumerate(assign_regions(scores)) if j is not None]
        assert pairs == list(zip(rows.tolist(), cols.tolist()))

    def test_ties_go_to_the_lower_cluster_then_the_earlier_region(self):
        # Clusters 0 and 1 tie for resident; the lower label takes it.
        scores = np.array(
            [[1.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]]
            + [[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]
        )
        assert assign_regions(scores) == [0, None, 1, 2, 3]
        # Every assignment ties: clusters take regions in order, a region
        # before none.
        assert assign_regions(np.zeros((6, 4))) == [0, 1, 2, 3, None, None]
        assert assign_regions(np.zeros((2, 4))) == [0, 1]
        # Equal rows: the lower cluster takes the earlier of two tied regions.
        assert assign_regions(np.full((2, 4), [0.4, 0.4, 0.1, 0.1])) == [0, 1]

    def test_fewer_clusters_than_regions_each_take_one(self):
        scores = np.array([[0.1, 0.2, 0.9, 0.3], [0.2, 0.1, 0.8, 0.7]])
        assert assign_regions(scores) == [2, 3]
        assert assign_regions(np.zeros((0, 4))) == []

    def test_non_finite_scores_are_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            assign_regions(np.array([[np.nan, 0.0, 0.0, 0.0]]))


class TestGrids:
    def test_density_maps_cover_all_towers(self, scenario):
        lats, lons = scenario.city.tower_coordinates()
        labels = scenario.ground_truth_labels()
        maps = cluster_density_maps(lats, lons, labels)
        total = sum(m.sum() for m in maps.values())
        assert total == scenario.city.num_towers

    def test_densest_point_inside_bounding_box(self, scenario):
        lats, lons = scenario.city.tower_coordinates()
        labels = scenario.ground_truth_labels()
        lat, lon = densest_point_of_cluster(lats, lons, labels, RegionType.OFFICE.index)
        assert lats.min() <= lat <= lats.max()
        assert lons.min() <= lon <= lons.max()

    def test_densest_point_missing_cluster(self, scenario):
        lats, lons = scenario.city.tower_coordinates()
        labels = scenario.ground_truth_labels()
        with pytest.raises(ValueError):
            densest_point_of_cluster(lats, lons, labels, 77)

    def test_towers_in_cell(self, scenario):
        lats, lons = scenario.city.tower_coordinates()
        grid = GridSpec.from_points(lats, lons, num_rows=5, num_cols=5)
        all_found = sum(
            towers_in_cell(lats, lons, grid, r, c).size
            for r in range(5)
            for c in range(5)
        )
        assert all_found == scenario.city.num_towers


class TestValidation:
    def test_case_study_agreement_on_ground_truth(self, scenario, poi_profile):
        labels = scenario.ground_truth_labels()
        labeling = label_clusters(poi_profile, labels)
        lats, lons = scenario.city.tower_coordinates()
        result = validate_case_study(
            labeling,
            labels,
            labels,
            lats,
            lons,
            lat_range=(float(lats.min()), float(lats.max())),
            lon_range=(float(lons.min()), float(lons.max())),
        )
        assert result.num_towers == scenario.city.num_towers
        assert result.agreement == 1.0

    def test_case_study_empty_window(self, scenario, poi_profile):
        labels = scenario.ground_truth_labels()
        labeling = label_clusters(poi_profile, labels)
        lats, lons = scenario.city.tower_coordinates()
        result = validate_case_study(
            labeling, labels, labels, lats, lons,
            lat_range=(0.0, 0.1), lon_range=(0.0, 0.1),
        )
        assert result.num_towers == 0
        assert result.agreement == 1.0

    def test_macro_validation_consistent(self, scenario, poi_profile):
        labels = scenario.ground_truth_labels()
        labeling = label_clusters(poi_profile, labels)
        table = macro_validation_table(labeling, poi_profile, labels)
        assert set(table) == {0, 1, 2, 3, 4}
        assert all(entry["consistent"] for entry in table.values())
