"""Tests for repro.core.pipeline and repro.core.stages — the staged engine."""

import numpy as np
import pytest

from repro.core.config import ModelConfig
from repro.core.model import TrafficPatternModel
from repro.core.pipeline import (
    Pipeline,
    PipelineContext,
    PipelineError,
    StageTiming,
    timings_as_dict,
)
from repro.core.stages import (
    ClusterStage,
    DecomposeStage,
    LabelStage,
    SpectralStage,
    TuneStage,
    VectorizeStage,
    default_stages,
)

STAGE_NAMES = ["vectorize", "cluster", "tune", "label", "spectral", "decompose"]


class RecordingStage:
    """Toy stage appending its name to a shared log artifact."""

    def __init__(self, name, fails=False):
        self.name = name
        self.fails = fails

    def run(self, context):
        if self.fails:
            raise RuntimeError(f"stage {self.name} exploded")
        log = context.get("log", [])
        context.set("log", [*log, self.name], producer=self.name)


class ConditionalStage(RecordingStage):
    def should_run(self, context):
        return bool(context.get("enable_conditional", False))


class TestPipelineContext:
    def test_set_get_require_and_provenance(self):
        context = PipelineContext(config=ModelConfig())
        context.set("answer", 42, producer="oracle")
        assert context.get("answer") == 42
        assert context.require("answer", int) == 42
        assert context.producer_of("answer") == "oracle"
        assert "answer" in context
        assert context.keys() == ["answer"]

    def test_require_missing_names_available_artifacts(self):
        context = PipelineContext(config=ModelConfig())
        context.set("present", 1)
        with pytest.raises(PipelineError, match="present"):
            context.require("absent")

    def test_require_type_mismatch(self):
        context = PipelineContext(config=ModelConfig())
        context.set("answer", "not-an-int")
        with pytest.raises(TypeError):
            context.require("answer", int)

    def test_require_none_skips_type_check(self):
        context = PipelineContext(config=ModelConfig())
        context.set("maybe", None)
        assert context.require("maybe", int) is None


class TestPipelineRunner:
    def make_context(self, **artifacts):
        context = PipelineContext(config=ModelConfig())
        for key, value in artifacts.items():
            context.set(key, value)
        return context

    def test_runs_stages_in_order_and_times_them(self):
        pipeline = Pipeline([RecordingStage("a"), RecordingStage("b")])
        context = pipeline.run(self.make_context())
        assert context.get("log") == ["a", "b"]
        assert [t.name for t in context.timings] == ["a", "b"]
        assert all(isinstance(t, StageTiming) and t.seconds >= 0.0 for t in context.timings)
        assert not any(t.skipped for t in context.timings)

    def test_skip_hook(self):
        pipeline = Pipeline([RecordingStage("a"), RecordingStage("b")], skip={"a"})
        context = pipeline.run(self.make_context())
        assert context.get("log") == ["b"]
        skipped = {t.name for t in context.timings if t.skipped}
        assert skipped == {"a"}

    def test_without_returns_new_pipeline(self):
        pipeline = Pipeline([RecordingStage("a"), RecordingStage("b")])
        reduced = pipeline.without("b")
        assert pipeline.run(self.make_context()).get("log") == ["a", "b"]
        assert reduced.run(self.make_context()).get("log") == ["a"]

    def test_override_hook(self):
        pipeline = Pipeline([RecordingStage("a"), RecordingStage("b", fails=True)])
        patched = pipeline.with_override("b", RecordingStage("b-fixed"))
        context = patched.run(self.make_context())
        assert context.get("log") == ["a", "b-fixed"]
        assert [t.name for t in context.timings] == ["a", "b-fixed"]

    def test_should_run_predicate(self):
        pipeline = Pipeline([ConditionalStage("c")])
        off = pipeline.run(self.make_context())
        assert off.get("log") is None
        assert off.timings[0].skipped
        on = pipeline.run(self.make_context(enable_conditional=True))
        assert on.get("log") == ["c"]

    def test_duplicate_stage_names_rejected(self):
        with pytest.raises(PipelineError):
            Pipeline([RecordingStage("a"), RecordingStage("a")])

    def test_unknown_skip_and_override_rejected(self):
        with pytest.raises(PipelineError):
            Pipeline([RecordingStage("a")], skip={"zzz"})
        with pytest.raises(PipelineError):
            Pipeline([RecordingStage("a")], overrides={"zzz": RecordingStage("b")})

    def test_timings_as_dict(self):
        timings = [StageTiming("a", 0.25), StageTiming("b", 0.0, skipped=True)]
        assert timings_as_dict(timings) == {"a": 0.25, "b": 0.0}


class TestDefaultStages:
    def test_names_and_order(self):
        assert [stage.name for stage in default_stages()] == STAGE_NAMES

    def test_types(self):
        stages = default_stages()
        assert isinstance(stages[0], VectorizeStage)
        assert isinstance(stages[1], ClusterStage)
        assert isinstance(stages[2], TuneStage)
        assert isinstance(stages[3], LabelStage)
        assert isinstance(stages[4], SpectralStage)
        assert isinstance(stages[5], DecomposeStage)

    def test_fresh_instances_each_call(self):
        assert default_stages()[0] is not default_stages()[0]


class TestModelAsPipelineFacade:
    def test_stage_timings_recorded_in_extras(self, fitted_model):
        timings = fitted_model.result.extras["stage_timings"]
        assert list(timings) == STAGE_NAMES
        assert all(seconds >= 0.0 for seconds in timings.values())
        # The fitted_model fixture supplies a city, so labelling really ran.
        assert timings["label"] > 0.0

    def test_label_stage_skipped_without_city(self, scenario):
        model = TrafficPatternModel(ModelConfig(num_clusters=5))
        result = model.fit(scenario.traffic)
        assert result.labeling is None
        assert result.extras["stage_timings"]["label"] == 0.0
        assert result.extras["stages_skipped"] == ["label"]

    def test_no_stages_skipped_with_city(self, fitted_model):
        assert fitted_model.result.extras["stages_skipped"] == []

    def test_build_pipeline_is_the_default_assembly(self):
        pipeline = TrafficPatternModel().build_pipeline()
        assert pipeline.stage_names == STAGE_NAMES

    def test_custom_pipeline_subclass_can_skip_stages(self, scenario):
        class NoLabelModel(TrafficPatternModel):
            def build_pipeline(self):
                return super().build_pipeline().without("label")

        model = NoLabelModel(ModelConfig(num_clusters=5))
        result = model.fit(scenario.traffic, city=scenario.city)
        assert result.labeling is None
        assert result.poi_profile is None
        # All clusters become components when no labelling exists.
        assert result.representatives is not None

    def test_backend_choice_preserves_fit_structure(self, scenario):
        lowmem = TrafficPatternModel(
            ModelConfig(max_clusters=8, cluster_backend="nn_chain_lowmem")
        ).fit(scenario.traffic, city=scenario.city)
        chain = TrafficPatternModel(
            ModelConfig(max_clusters=8, cluster_backend="nn_chain")
        ).fit(scenario.traffic, city=scenario.city)
        assert lowmem.num_clusters == chain.num_clusters
        # Same partition, label-for-label (labels are renumbered
        # deterministically by lowest member index).
        assert np.array_equal(lowmem.labels, chain.labels)

    @pytest.mark.parametrize("name", ["bogus", "generic"])
    def test_invalid_backend_rejected_by_config(self, name):
        with pytest.raises(ValueError, match="unknown cluster_backend"):
            ModelConfig(cluster_backend=name)


class TestEmptyLabelGuards:
    def test_percentages_and_sizes_raise_on_empty_labels(self):
        from repro.cluster.hierarchical import ClusteringResult, Dendrogram
        from repro.cluster.linkage import Linkage

        result = ClusteringResult(
            labels=np.array([], dtype=int),
            dendrogram=Dendrogram(merges=np.empty((0, 4)), num_observations=1),
            linkage=Linkage.AVERAGE,
        )
        with pytest.raises(ValueError):
            result.percentages()
        with pytest.raises(ValueError):
            result.cluster_sizes()


class FingerprintedStage(RecordingStage):
    """Toy stage whose fingerprint is the context's 'knob' artifact."""

    def __init__(self, name):
        super().__init__(name)
        self.run_count = 0

    def fingerprint(self, context):
        knob = context.get("knob")
        return None if knob is None else f"digest-{knob}"

    def run(self, context):
        self.run_count += 1
        context.set("product", f"{self.name}-of-{context.get('knob')}", producer=self.name)


class TestResumableRuns:
    def make_context(self, **artifacts):
        context = PipelineContext(config=ModelConfig())
        for key, value in artifacts.items():
            context.set(key, value)
        return context

    def test_fingerprints_recorded(self):
        stage = FingerprintedStage("s")
        context = self.make_context(knob=1)
        Pipeline([stage]).run(context)
        assert context.fingerprints == {"s": "digest-1"}
        assert stage.run_count == 1

    def test_matching_cache_republishes_outputs_without_running(self):
        from repro.core.pipeline import StageCache

        stage = FingerprintedStage("s")
        context = self.make_context(knob=1)
        context.reuse = {"s": StageCache("digest-1", {"product": "cached-product"})}
        Pipeline([stage]).run(context)
        assert stage.run_count == 0
        assert context.get("product") == "cached-product"
        assert context.producer_of("product") == "s"
        timing = context.timings[0]
        assert timing.reused and not timing.skipped
        assert context.fingerprints == {"s": "digest-1"}

    def test_stale_cache_reruns_the_stage(self):
        from repro.core.pipeline import StageCache

        stage = FingerprintedStage("s")
        context = self.make_context(knob=2)
        context.reuse = {"s": StageCache("digest-1", {"product": "cached-product"})}
        Pipeline([stage]).run(context)
        assert stage.run_count == 1
        assert context.get("product") == "s-of-2"
        assert not context.timings[0].reused

    def test_no_fingerprint_means_no_reuse(self):
        from repro.core.pipeline import StageCache

        stage = FingerprintedStage("s")
        context = self.make_context()  # no knob -> fingerprint None
        context.reuse = {"s": StageCache("digest-1", {"product": "cached-product"})}
        Pipeline([stage]).run(context)
        assert stage.run_count == 1
        assert "s" not in context.fingerprints

    def test_skip_wins_over_reuse(self):
        from repro.core.pipeline import StageCache

        stage = FingerprintedStage("s")
        context = self.make_context(knob=1)
        context.reuse = {"s": StageCache("digest-1", {"product": "cached-product"})}
        Pipeline([stage], skip={"s"}).run(context)
        assert stage.run_count == 0
        assert context.get("product") is None
        assert context.timings[0].skipped and not context.timings[0].reused
