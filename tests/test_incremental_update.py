"""Tests for incremental day-over-day updates (model.update + stage reuse)."""

import json

import numpy as np
import pytest
from oracles.spectral import fft_frequency_features

from repro.core.config import ModelConfig
from repro.core.model import TrafficPatternModel
from repro.core.stages import spectral as spectral_stage
from repro.ingest.batch import RecordBatch
from repro.obs import Tracer
from repro.synth.scenario import ScenarioConfig, generate_scenario
from repro.synth.traffic import TowerTrafficMatrix
from repro.utils.fingerprint import fingerprint
from repro.utils.timeutils import SECONDS_PER_DAY, SLOT_SECONDS, TimeWindow
from repro.vectorize.aggregate import aggregate_batches, scatter_batch_into

NUM_TOWERS = 40
WINDOW = TimeWindow(num_days=7)
TOWER_IDS = list(range(NUM_TOWERS))


def day_batch(rng, day, n=3000, num_towers=NUM_TOWERS):
    """One synthetic day of already-clean records."""
    starts = rng.uniform(day * SECONDS_PER_DAY, (day + 1) * SECONDS_PER_DAY, size=n)
    durations = rng.exponential(0.5 * SLOT_SECONDS, size=n)
    return RecordBatch(
        user_id=rng.integers(0, 400, size=n),
        tower_id=rng.integers(0, num_towers, size=n),
        start_s=starts,
        end_s=np.minimum(starts + durations, float(WINDOW.num_seconds)),
        bytes_used=rng.lognormal(9.0, 1.0, size=n),
        network=np.zeros(n, dtype=np.uint8),
    )


def empty_batch():
    return RecordBatch(
        user_id=np.array([], dtype=np.int64),
        tower_id=np.array([], dtype=np.int64),
        start_s=np.array([]),
        end_s=np.array([]),
        bytes_used=np.array([]),
        network=np.array([], dtype=np.uint8),
    )


@pytest.fixture(scope="module")
def daily_batches():
    rng = np.random.default_rng(42)
    return [day_batch(rng, day) for day in range(WINDOW.num_days)]


class TestScatterBatchInto:
    def test_matches_streaming_aggregation_bit_for_bit(self, daily_batches):
        full = aggregate_batches(daily_batches, WINDOW, TOWER_IDS)
        partial = aggregate_batches(daily_batches[:-1], WINDOW, TOWER_IDS)
        scatter_batch_into(partial, daily_batches[-1])
        assert np.array_equal(full.traffic, partial.traffic)

    def test_unknown_towers_are_ignored(self, daily_batches):
        matrix = aggregate_batches(daily_batches[:1], WINDOW, TOWER_IDS)
        before = matrix.traffic.copy()
        rng = np.random.default_rng(0)
        foreign = day_batch(rng, 0, n=100)
        foreign.tower_id = foreign.tower_id + NUM_TOWERS  # all unknown
        scatter_batch_into(matrix, foreign)
        assert np.array_equal(matrix.traffic, before)

    def test_returns_matrix_for_chaining(self):
        matrix = TowerTrafficMatrix(
            tower_ids=np.arange(3),
            traffic=np.zeros((3, WINDOW.num_slots)),
            window=WINDOW,
        )
        assert scatter_batch_into(matrix, empty_batch()) is matrix


class TestIncrementalEquivalence:
    def test_update_matches_full_refit_bit_for_bit(self, daily_batches, tmp_path):
        config = ModelConfig(num_clusters=4)
        full = TrafficPatternModel(config)
        full_result = full.fit_batches(daily_batches, WINDOW, TOWER_IDS)

        incremental = TrafficPatternModel(config)
        incremental.fit_batches(daily_batches[:-1], WINDOW, TOWER_IDS)
        bundle = incremental.save(tmp_path / "bundle")
        reloaded = TrafficPatternModel.load(bundle)
        update_result = reloaded.update(daily_batches[-1])

        assert np.array_equal(
            full_result.vectorized.raw.traffic, update_result.vectorized.raw.traffic
        )
        assert np.array_equal(
            full_result.vectorized.vectors, update_result.vectorized.vectors
        )
        assert np.array_equal(full_result.labels, update_result.labels)
        assert np.array_equal(
            full_result.clustering.dendrogram.merges,
            update_result.clustering.dendrogram.merges,
        )
        assert np.array_equal(
            full_result.frequency_features.amplitudes,
            update_result.frequency_features.amplitudes,
        )
        assert np.array_equal(
            full_result.representatives.features,
            update_result.representatives.features,
        )

    def test_per_day_update_chain_matches_full_refit(self, daily_batches):
        """Folding days in one at a time converges to the one-shot fit."""
        config = ModelConfig(num_clusters=4)
        full_result = TrafficPatternModel(config).fit_batches(
            daily_batches, WINDOW, TOWER_IDS
        )

        chained = TrafficPatternModel(config)
        chained.fit_batches(daily_batches[:2], WINDOW, TOWER_IDS)
        for batch in daily_batches[2:]:
            chained.update(batch)

        assert np.array_equal(
            full_result.vectorized.raw.traffic,
            chained.result.vectorized.raw.traffic,
        )
        assert np.array_equal(full_result.labels, chained.result.labels)

    def test_update_accepts_an_iterable_of_batches(self, daily_batches):
        config = ModelConfig(num_clusters=4)
        full_result = TrafficPatternModel(config).fit_batches(
            daily_batches, WINDOW, TOWER_IDS
        )
        model = TrafficPatternModel(config)
        model.fit_batches(daily_batches[:-2], WINDOW, TOWER_IDS)
        model.update(iter(daily_batches[-2:]))
        assert np.array_equal(
            full_result.vectorized.raw.traffic, model.result.vectorized.raw.traffic
        )

    def test_update_requires_a_fitted_model(self, daily_batches):
        with pytest.raises(RuntimeError, match="not been fitted"):
            TrafficPatternModel().update(daily_batches[0])


class TestStageReuse:
    def test_noop_update_reuses_every_fingerprinted_stage(self, daily_batches):
        model = TrafficPatternModel(ModelConfig(num_clusters=4))
        model.fit_batches(daily_batches, WINDOW, TOWER_IDS)
        before = model.result
        after = model.update(empty_batch())
        assert set(after.extras["stages_reused"]) == {
            "vectorize", "cluster", "tune", "spectral", "decompose",
        }
        assert np.array_equal(before.labels, after.labels)
        assert after.vectorized is before.vectorized  # republished, not recomputed

    def test_real_update_reruns_changed_stages(self, daily_batches):
        model = TrafficPatternModel(ModelConfig(num_clusters=4))
        model.fit_batches(daily_batches[:-1], WINDOW, TOWER_IDS)
        after = model.update(daily_batches[-1])
        assert "vectorize" not in after.extras["stages_reused"]
        assert "cluster" not in after.extras["stages_reused"]

    def test_first_update_of_an_older_bundle_reruns_the_changed_stages_once(
        self, daily_batches, tmp_path
    ):
        """Bundles written before the grid was hashed once per fit carry the
        older stage fingerprints: vectorize and spectral hashed the grid,
        cluster and tune the vectors.  The first update re-runs those four
        stages once; the update after it reuses every stage as before."""
        model = TrafficPatternModel(ModelConfig(num_clusters=4))
        model.fit_batches(daily_batches, WINDOW, TOWER_IDS)
        bundle = model.save(tmp_path / "bundle")
        result, config = model.result, model.config
        raw, window = result.vectorized.raw, result.window
        vectors, dendrogram = result.vectorized.vectors, result.clustering.dendrogram
        older = {
            "vectorize": fingerprint(
                raw.traffic, raw.tower_ids, window.num_days, window.start_weekday,
                config.normalization.value,
            ),
            "cluster": fingerprint(vectors, config.linkage.value, config.cluster_backend),
            "tune": fingerprint(
                dendrogram.merges, dendrogram.num_observations, vectors,
                config.num_clusters, config.validity_index, config.min_clusters,
                config.max_clusters,
            ),
            "spectral": fingerprint(
                raw.traffic, raw.tower_ids, window.num_days, window.start_weekday,
                config.feature_normalization.value,
            ),
        }
        manifest_path = bundle / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        assert set(older) < set(manifest["extras"]["stage_fingerprints"])
        manifest["extras"]["stage_fingerprints"].update(older)
        manifest_path.write_text(json.dumps(manifest))

        reloaded = TrafficPatternModel.load(bundle)
        first = reloaded.update(empty_batch())
        assert first.extras["stages_reused"] == ["decompose"]
        second = reloaded.update(empty_batch())
        assert set(second.extras["stages_reused"]) == {
            "vectorize", "cluster", "tune", "spectral", "decompose",
        }
        for updated in (first, second):
            assert np.array_equal(updated.vectorized.vectors, vectors)
            assert np.array_equal(updated.clustering.dendrogram.merges, dendrogram.merges)
            assert np.array_equal(updated.labels, result.labels)

    def test_first_update_of_an_fft_feature_bundle_reruns_spectral_and_decompose_once(
        self, daily_batches, tmp_path, monkeypatch
    ):
        """Bundles written before the three-bin direct DFT hold full-FFT
        features under a spectral fingerprint without the algorithm tag.  The
        first update re-runs spectral (its fingerprint moved) and decompose
        (the features moved by a few ulps); the update after it reuses every
        stage, and both equal a fresh fit."""

        def fingerprint_without_algorithm(self, context):
            traffic = context.traffic
            return fingerprint(
                context.traffic_digest(),
                traffic.tower_ids,
                traffic.window.num_days,
                traffic.window.start_weekday,
                context.config.feature_normalization.value,
            )

        config = ModelConfig(num_clusters=4)
        with monkeypatch.context() as patch:
            patch.setattr(spectral_stage, "extract_frequency_features", fft_frequency_features)
            patch.setattr(
                spectral_stage.SpectralStage, "fingerprint", fingerprint_without_algorithm
            )
            older = TrafficPatternModel(config)
            older.fit_batches(daily_batches, WINDOW, TOWER_IDS)
            bundle = older.save(tmp_path / "bundle")
        fresh = TrafficPatternModel(config).fit_batches(daily_batches, WINDOW, TOWER_IDS)
        assert not np.array_equal(
            older.result.frequency_features.amplitudes, fresh.frequency_features.amplitudes
        )

        reloaded = TrafficPatternModel.load(bundle)
        first = reloaded.update(empty_batch())
        assert set(first.extras["stages_reused"]) == {"vectorize", "cluster", "tune"}
        second = reloaded.update(empty_batch())
        assert set(second.extras["stages_reused"]) == {
            "vectorize", "cluster", "tune", "spectral", "decompose",
        }
        for updated in (first, second):
            assert np.array_equal(updated.labels, fresh.labels)
            for name in ("amplitudes", "phases"):
                assert np.array_equal(
                    getattr(updated.frequency_features, name),
                    getattr(fresh.frequency_features, name),
                )
            for name in ("cluster_labels", "row_indices", "tower_ids", "features"):
                assert np.array_equal(
                    getattr(updated.representatives, name),
                    getattr(fresh.representatives, name),
                )
            assert np.array_equal(
                updated.representatives.tower_ids, older.result.representatives.tower_ids
            )

    def test_fingerprints_recorded_on_plain_fit(self, daily_batches):
        model = TrafficPatternModel(ModelConfig(num_clusters=4))
        result = model.fit_batches(daily_batches, WINDOW, TOWER_IDS)
        fingerprints = result.extras["stage_fingerprints"]
        assert {"vectorize", "cluster", "tune", "spectral", "decompose"} <= set(
            fingerprints
        )
        assert all(len(digest) == 64 for digest in fingerprints.values())


class TestUpdateWithLabelling:
    @pytest.fixture(scope="class")
    def labelled_model(self):
        scenario = generate_scenario(
            ScenarioConfig(num_towers=50, num_users=80, num_days=7, seed=9)
        )
        model = TrafficPatternModel(ModelConfig(max_clusters=8))
        model.fit(scenario.traffic, city=scenario.city)
        return model, scenario

    def test_update_without_city_keeps_labelling(self, labelled_model, tmp_path):
        """POI geography is static: updates re-label without the city."""
        model, scenario = labelled_model
        bundle = model.save(tmp_path / "bundle")
        reloaded = TrafficPatternModel.load(bundle)

        rng = np.random.default_rng(5)
        new_day = day_batch(rng, day=3, n=2000, num_towers=50)
        result = reloaded.update(new_day)
        assert result.labeling is not None
        assert result.poi_profile is not None
        assert np.array_equal(
            result.poi_profile.counts, model.result.poi_profile.counts
        )
        assert set(result.labeling.as_dict().values())  # labelled clusters exist
        # queries still work end to end
        tower = int(result.tower_ids[0])
        assert reloaded.predict_region(tower) is not None

    def test_noop_update_without_city_reuses_label_stage_second_time(
        self, labelled_model, tmp_path
    ):
        model, _ = labelled_model
        bundle = model.save(tmp_path / "bundle")
        reloaded = TrafficPatternModel.load(bundle)
        first = reloaded.update(empty_batch())
        # The first no-op update re-labels from the prior POI profile and
        # records the label fingerprint; a second no-op update reuses it.
        assert "label" not in first.extras["stages_reused"]
        assert first.labeling is not None
        second = reloaded.update(empty_batch())
        assert "label" in second.extras["stages_reused"]
        assert second.labeling.as_dict() == model.result.labeling.as_dict()

    def test_update_with_city_recomputes_poi_profiles(self, labelled_model):
        model, scenario = labelled_model
        expected = model.result.labeling.as_dict()
        result = model.update(empty_batch(), city=scenario.city)
        assert result.labeling is not None
        assert "label" not in result.extras["stages_reused"]
        assert result.labeling.as_dict() == expected


class TestUpdateStats:
    def test_counts_seen_and_folded_records(self, daily_batches):
        model = TrafficPatternModel(ModelConfig(num_clusters=4))
        model.fit_batches(daily_batches[:-1], WINDOW, TOWER_IDS)
        result = model.update(daily_batches[-1])
        stats = result.extras["update_stats"]
        assert stats["records_seen"] == len(daily_batches[-1])
        assert stats["records_folded"] == len(daily_batches[-1])

    def test_out_of_window_records_fold_nothing(self, daily_batches):
        model = TrafficPatternModel(ModelConfig(num_clusters=4))
        model.fit_batches(daily_batches, WINDOW, TOWER_IDS)
        before = model.result.vectorized.raw.traffic.copy()
        n = 30
        starts = np.full(n, WINDOW.num_seconds + 100.0)
        late = RecordBatch(
            user_id=np.arange(n),
            tower_id=np.zeros(n, dtype=np.int64),
            start_s=starts,
            end_s=starts + 60.0,
            bytes_used=np.full(n, 1000.0),
            network=np.zeros(n, dtype=np.uint8),
        )
        result = model.update(late)
        stats = result.extras["update_stats"]
        assert stats["records_seen"] == n
        assert stats["records_folded"] == 0
        assert np.array_equal(result.vectorized.raw.traffic, before)

    def test_update_ingest_reads_only_the_new_records(self, daily_batches, tmp_path):
        # An update folds the new day onto the stored grid: its ingest sees
        # the new records alone, never the history behind the bundle.
        model = TrafficPatternModel(ModelConfig(num_clusters=4))
        model.fit_batches(daily_batches[:-1], WINDOW, TOWER_IDS)
        reloaded = TrafficPatternModel.load(model.save(tmp_path / "bundle"))
        tracer = Tracer()
        new_day = daily_batches[-1]
        reloaded.update(new_day.iter_chunks(1_000), tracer=tracer)
        assert tracer.find("ingest").counters == {
            "chunks": 3,
            "records_seen": len(new_day),
            "records_folded": len(new_day),
        }

    def test_unknown_tower_records_not_counted_as_folded(self, daily_batches):
        model = TrafficPatternModel(ModelConfig(num_clusters=4))
        model.fit_batches(daily_batches, WINDOW, TOWER_IDS)
        rng = np.random.default_rng(1)
        foreign = day_batch(rng, 0, n=20)
        foreign.tower_id = foreign.tower_id + NUM_TOWERS
        result = model.update(foreign)
        assert result.extras["update_stats"]["records_folded"] == 0
