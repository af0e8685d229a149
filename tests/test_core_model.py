"""Tests for repro.core (config, model, results) — the end-to-end pipeline."""

import numpy as np
import pytest

from repro.cluster.linkage import Linkage
from repro.core.config import ModelConfig
from repro.core.model import TrafficPatternModel
from repro.core.results import ClusterSummary
from repro.geo.labeling import label_accuracy
from repro.synth.regions import RegionType
from repro.synth.traffic import TowerTrafficMatrix
from repro.utils.timeutils import TimeWindow
from repro.vectorize.normalize import NormalizationMethod


class TestModelConfig:
    def test_defaults_match_paper(self):
        config = ModelConfig()
        assert config.normalization is NormalizationMethod.ZSCORE
        assert config.linkage is Linkage.AVERAGE
        assert config.validity_index == "davies_bouldin"
        assert config.poi_radius_km == 0.2

    def test_validation(self):
        with pytest.raises(ValueError):
            ModelConfig(min_clusters=1)
        with pytest.raises(ValueError):
            ModelConfig(min_clusters=6, max_clusters=4)
        with pytest.raises(ValueError):
            ModelConfig(num_clusters=0)
        with pytest.raises(ValueError):
            ModelConfig(poi_radius_km=0.0)
        with pytest.raises(ValueError):
            ModelConfig(decomposition_feature=())

    @pytest.mark.parametrize("radius", [float("nan"), float("inf")])
    def test_non_finite_poi_radius_rejected(self, radius):
        with pytest.raises(ValueError, match="poi_radius_km must be positive and finite"):
            ModelConfig(poi_radius_km=radius)


class TestFittedModel:
    def test_five_patterns_identified(self, fitted_model):
        assert fitted_model.result.num_clusters == 5

    def test_labels_cover_all_towers(self, fitted_model, scenario):
        result = fitted_model.result
        assert result.labels.shape == (scenario.traffic.num_towers,)
        assert result.tower_ids.shape == (scenario.traffic.num_towers,)

    def test_all_regions_assigned(self, fitted_model):
        result = fitted_model.result
        regions = {result.region_of_cluster(c) for c in range(result.num_clusters)}
        assert regions == set(RegionType.ordered())

    def test_clusters_recover_ground_truth(self, fitted_model, scenario):
        result = fitted_model.result
        accuracy = label_accuracy(
            result.labeling, result.labels, scenario.ground_truth_labels()
        )
        assert accuracy > 0.9

    def test_percentage_table_structure(self, fitted_model):
        rows = fitted_model.result.percentage_table()
        assert len(rows) == 5
        assert sum(row["percentage"] for row in rows) == pytest.approx(100.0, abs=0.1)
        assert {"cluster", "region", "percentage"} <= set(rows[0])

    def test_office_is_largest_cluster(self, fitted_model):
        result = fitted_model.result
        office = result.cluster_of_region(RegionType.OFFICE)
        sizes = result.clustering.cluster_sizes()
        assert np.argmax(sizes) == office

    def test_summaries(self, fitted_model, scenario):
        summaries = fitted_model.result.summaries()
        assert len(summaries) == 5
        assert all(isinstance(s, ClusterSummary) for s in summaries)
        assert sum(s.num_towers for s in summaries) == scenario.traffic.num_towers
        assert all(s.centroid_profile.shape == (scenario.window.num_slots,) for s in summaries)

    def test_cluster_aggregate_and_centroid(self, fitted_model):
        result = fitted_model.result
        aggregate = result.cluster_aggregate(0)
        centroid = result.cluster_centroid(0)
        assert aggregate.shape == centroid.shape
        assert aggregate.sum() > 0

    def test_tuning_curve_recorded(self, fitted_model):
        curve = fitted_model.result.tuning_curve
        assert curve is not None
        assert curve.best()[0] == 5
        assert curve.index_name == "davies_bouldin"

    def test_representatives_are_pure_clusters(self, fitted_model):
        result = fitted_model.result
        reps = result.representatives
        assert reps is not None
        assert reps.num_clusters == 4
        comp_cluster = result.cluster_of_region(RegionType.COMPREHENSIVE)
        assert comp_cluster not in reps.cluster_labels.tolist()

    def test_predict_region(self, fitted_model, scenario):
        truth = scenario.ground_truth_labels()
        hits = 0
        for row in range(0, scenario.traffic.num_towers, 7):
            tower_id = int(scenario.traffic.tower_ids[row])
            predicted = fitted_model.predict_region(tower_id)
            hits += predicted.index == truth[row]
        assert hits / len(range(0, scenario.traffic.num_towers, 7)) > 0.85

    def test_decompose_comprehensive_tower(self, fitted_model):
        result = fitted_model.result
        comp_cluster = result.cluster_of_region(RegionType.COMPREHENSIVE)
        members = result.cluster_members(comp_cluster)
        tower_id = int(result.tower_ids[members[0]])
        decomposition = fitted_model.decompose(tower_id)
        assert decomposition.coefficients.sum() == pytest.approx(1.0)
        assert np.all(decomposition.coefficients >= -1e-9)

    def test_decompose_pure_tower_dominated_by_own_cluster(self, fitted_model):
        result = fitted_model.result
        reps = result.representatives
        # The representative itself must decompose to ~100% of its own component.
        for label, tower_id in zip(reps.cluster_labels, reps.tower_ids):
            decomposition = fitted_model.decompose(int(tower_id))
            assert decomposition.dominant_component() == int(label)
            assert decomposition.coefficient_of(int(label)) > 0.95

    def test_time_domain_mixture(self, fitted_model):
        result = fitted_model.result
        comp_cluster = result.cluster_of_region(RegionType.COMPREHENSIVE)
        members = result.cluster_members(comp_cluster)
        tower_id = int(result.tower_ids[members[1]])
        mixture = fitted_model.decompose_in_time_domain(tower_id)
        assert mixture.combined.shape == (result.window.num_slots,)
        assert mixture.approximation_error() < 0.8

    def test_result_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            TrafficPatternModel().result


class TestModelVariants:
    def test_fixed_num_clusters(self, scenario):
        model = TrafficPatternModel(ModelConfig(num_clusters=4))
        result = model.fit(scenario.traffic, city=scenario.city)
        assert result.num_clusters == 4
        assert result.tuning_curve is None

    def test_fit_without_city_skips_labelling(self, scenario):
        model = TrafficPatternModel(ModelConfig(num_clusters=5))
        result = model.fit(scenario.traffic)
        assert result.labeling is None
        assert result.poi_profile is None
        assert result.region_of_cluster(0) is None
        with pytest.raises(KeyError):
            result.cluster_of_region(RegionType.OFFICE)
        with pytest.raises(RuntimeError):
            model.predict_region(int(result.tower_ids[0]))
        # Representatives still exist (all clusters are used as components).
        assert result.representatives is not None

    def test_minmax_normalisation_also_recovers_patterns(self, scenario):
        model = TrafficPatternModel(
            ModelConfig(normalization=NormalizationMethod.MINMAX, num_clusters=5)
        )
        result = model.fit(scenario.traffic, city=scenario.city)
        accuracy = label_accuracy(
            result.labeling, result.labels, scenario.ground_truth_labels()
        )
        assert accuracy > 0.8


class TestFittedGrid:
    """``fit`` keeps the grid it fitted: the caller cannot change it afterwards."""

    @staticmethod
    def _matrix(grid):
        return TowerTrafficMatrix(np.arange(grid.shape[0]), grid, TimeWindow(num_days=2))

    def test_writing_into_the_fitted_grid_raises(self, tmp_path):
        grid = np.random.default_rng(5).random((20, TimeWindow(num_days=2).num_slots))
        model = TrafficPatternModel(ModelConfig(num_clusters=3))
        result = model.fit(self._matrix(grid))
        assert result.vectorized.raw.traffic is grid
        with pytest.raises(ValueError, match="read-only"):
            grid[:] = 0.0
        loaded = TrafficPatternModel.load(model.save(tmp_path / "bundle")).result
        assert np.array_equal(loaded.vectorized.raw.traffic, result.vectorized.raw.traffic)

    def test_a_view_is_replaced_by_a_copy_and_its_base_stays_writable(self, tmp_path):
        base = np.random.default_rng(6).random((20, 2 * TimeWindow(num_days=2).num_slots))
        view = base[:, : TimeWindow(num_days=2).num_slots]
        matrix = self._matrix(view)
        model = TrafficPatternModel(ModelConfig(num_clusters=3))
        fitted = model.fit(matrix).vectorized.raw.traffic
        assert fitted is matrix.traffic
        assert fitted.base is None and not fitted.flags.writeable
        assert np.array_equal(fitted, view)
        base[:] = 0.0  # the viewed array stays the caller's
        loaded = TrafficPatternModel.load(model.save(tmp_path / "bundle")).result
        assert np.array_equal(loaded.vectorized.raw.traffic, fitted)
        assert fitted.sum() > 0.0
