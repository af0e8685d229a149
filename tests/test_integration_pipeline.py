"""Integration tests: raw session logs → ingestion → vectorizer → model,
and consistency between the session-level and profile-level generators."""

import numpy as np
import pytest

from oracles.records import records_of
from repro.core.config import ModelConfig
from repro.core.model import TrafficPatternModel
from repro.ingest.loader import read_record_batch_csv, write_records_csv
from repro.ingest.preprocess import preprocess_trace
from repro.ingest.records import BaseStationInfo
from repro.synth.geocoder import SyntheticGeocoder
from repro.vectorize.aggregate import aggregate_batches
from repro.vectorize.normalize import NormalizationMethod
from repro.vectorize.vectorizer import TrafficVectorizer


class TestSessionToModelPipeline:
    @pytest.fixture(scope="class")
    def preprocessed(self, session_scenario):
        towers = session_scenario.city.towers
        stations = [BaseStationInfo(t.tower_id, t.address) for t in towers]
        geocoder = SyntheticGeocoder.from_towers(towers)
        return preprocess_trace(session_scenario.session_batch(), stations, geocoder)

    def test_aggregated_sessions_correlate_with_profile_traffic(
        self, session_scenario, preprocessed
    ):
        """Per-tower volumes from the session path must track the ground-truth
        activity templates: towers aggregate into series whose shape
        correlates with the profile-level generator's output."""
        vectorizer = TrafficVectorizer(method=NormalizationMethod.MAX)
        vectorized = vectorizer.from_matrix(
            aggregate_batches(
                [preprocessed.records],
                session_scenario.window,
                session_scenario.traffic.tower_ids.tolist(),
            )
        )
        profile_based = TrafficVectorizer(method=NormalizationMethod.MAX).from_matrix(
            session_scenario.traffic
        )
        correlations = []
        for row in range(vectorized.num_towers):
            a = vectorized.vectors[row]
            b = profile_based.vectors[row]
            if a.std() == 0 or b.std() == 0:
                continue
            correlations.append(np.corrcoef(a, b)[0, 1])
        assert np.median(correlations) > 0.5

    def test_cleaning_reduces_volume_towards_truth(self, session_scenario, preprocessed):
        corrupted_volume = session_scenario.session_batch().total_bytes
        cleaned_volume = preprocessed.records.total_bytes
        assert cleaned_volume < corrupted_volume

    def test_model_fits_on_session_derived_matrix(self, session_scenario, preprocessed):
        model = TrafficPatternModel(ModelConfig(num_clusters=5, max_clusters=6))
        result = model.fit_batches(
            [preprocessed.records],
            session_scenario.window,
            session_scenario.traffic.tower_ids.tolist(),
            city=session_scenario.city,
        )
        assert result.num_clusters == 5
        assert result.labels.shape[0] == session_scenario.traffic.num_towers


class TestTraceFileRoundTrip:
    def test_csv_round_trip_preserves_model_input(self, tmp_path, session_scenario):
        path = tmp_path / "trace.csv"
        sample = session_scenario.session_batch().take(np.arange(5000))
        write_records_csv(sample, path)
        assert records_of(read_record_batch_csv(path)) == records_of(sample)

    def test_model_deterministic_given_same_traffic(self, scenario):
        model_a = TrafficPatternModel(ModelConfig(num_clusters=5))
        model_b = TrafficPatternModel(ModelConfig(num_clusters=5))
        result_a = model_a.fit(scenario.traffic, city=scenario.city)
        result_b = model_b.fit(scenario.traffic, city=scenario.city)
        assert np.array_equal(result_a.labels, result_b.labels)

    def test_paper_shape_checks_hold_end_to_end(self, fitted_model, scenario):
        """The headline observations of the paper hold on synthetic data."""
        from repro.analysis.timedomain import peak_valley_features, weekday_weekend_ratio
        from repro.spectral.components import reconstruction_energy_loss
        from repro.synth.regions import RegionType

        result = fitted_model.result
        window = result.window

        # Observation 1: five time-domain patterns.
        assert result.num_clusters == 5

        # Observation 2: office/transport weekday-weekend ratio >> resident's.
        ratios = {}
        for region in RegionType.ordered():
            cluster = result.cluster_of_region(region)
            ratios[region] = weekday_weekend_ratio(result.cluster_aggregate(cluster), window)
        assert ratios[RegionType.OFFICE] > ratios[RegionType.RESIDENT]
        assert ratios[RegionType.TRANSPORT] > ratios[RegionType.RESIDENT]

        # Observation 3: transport has the largest peak-valley ratio.
        pv = {
            region: peak_valley_features(
                result.cluster_aggregate(result.cluster_of_region(region)), window
            ).weekday_ratio
            for region in RegionType.ordered()
        }
        assert max(pv, key=pv.get) is RegionType.TRANSPORT

        # Observation 4: three principal components retain most energy.
        loss = reconstruction_energy_loss(
            result.vectorized.raw.aggregate(), result.components
        )
        assert loss < 0.10
