"""Tests for repro.core.pipeline and repro.core.stages — the staged engine."""

import numpy as np
import pytest

from repro.core.config import ModelConfig
from repro.core.model import TrafficPatternModel
from repro.core.pipeline import Pipeline, PipelineContext, PipelineError
from repro.core.stages import (
    ClusterStage,
    DecomposeStage,
    LabelStage,
    SpectralStage,
    TuneStage,
    VectorizeStage,
    default_stages,
)
from repro.obs.trace import Span, Tracer

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
        # Untraced, the stage spans come from a tracer local to the run.
        assert [span.name for span in context.stage_spans] == ["a", "b"]
        assert all(isinstance(span, Span) for span in context.stage_spans)
        assert all(span.wall_seconds > 0.0 for span in context.stage_spans)
        assert not any(span.attributes for span in context.stage_spans)

    def test_a_traced_run_keeps_the_tracers_own_spans(self):
        tracer = Tracer()
        context = PipelineContext(config=ModelConfig(), tracer=tracer)
        with tracer.span("fit"):
            Pipeline([RecordingStage("a"), ConditionalStage("c")]).run(context)
        (root,) = tracer.roots
        assert context.stage_spans == root.children
        assert context.stage_spans[1].attributes == {"skipped": True}

    def test_a_shorter_stage_list_is_a_new_pipeline(self):
        pipeline = Pipeline([RecordingStage("a"), RecordingStage("b")])
        reduced = Pipeline(stage for stage in pipeline.stages if stage.name != "b")
        assert pipeline.run(self.make_context()).get("log") == ["a", "b"]
        assert reduced.run(self.make_context()).get("log") == ["a"]

    def test_a_replaced_stage_runs_in_its_place(self):
        pipeline = Pipeline([RecordingStage("a"), RecordingStage("b", fails=True)])
        patched = Pipeline(
            RecordingStage("b-fixed") if stage.name == "b" else stage
            for stage in pipeline.stages
        )
        context = patched.run(self.make_context())
        assert context.get("log") == ["a", "b-fixed"]
        assert [span.name for span in context.stage_spans] == ["a", "b-fixed"]

    def test_should_run_predicate(self):
        pipeline = Pipeline([ConditionalStage("c")])
        off = pipeline.run(self.make_context())
        assert off.get("log") is None
        assert off.stage_spans[0].attributes == {"skipped": True}
        on = pipeline.run(self.make_context(enable_conditional=True))
        assert on.get("log") == ["c"]

    def test_duplicate_stage_names_rejected(self):
        with pytest.raises(PipelineError):
            Pipeline([RecordingStage("a"), RecordingStage("a")])


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
                return Pipeline(
                    stage for stage in default_stages() if stage.name != "label"
                )

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

    def test_fingerprint_is_computed_inside_the_stage_span(self):
        from repro.obs import Tracer

        spans = []

        class SpanRecordingStage(FingerprintedStage):
            def fingerprint(self, context):
                spans.append(context.tracer.current.name)
                return super().fingerprint(context)

        context = PipelineContext(config=ModelConfig(), tracer=Tracer())
        context.set("knob", 1)
        Pipeline([RecordingStage("a"), SpanRecordingStage("s")]).run(context)
        assert spans == ["s"]
        assert context.fingerprints == {"s": "digest-1"}

    def test_matching_cache_republishes_outputs_without_running(self):
        from repro.core.pipeline import StageCache

        stage = FingerprintedStage("s")
        context = self.make_context(knob=1)
        context.reuse = {"s": StageCache("digest-1", {"product": "cached-product"})}
        Pipeline([stage]).run(context)
        assert stage.run_count == 0
        assert context.get("product") == "cached-product"
        assert context.producer_of("product") == "s"
        assert context.stage_spans[0].attributes == {"reused": True}
        assert context.fingerprints == {"s": "digest-1"}

    def test_stale_cache_reruns_the_stage(self):
        from repro.core.pipeline import StageCache

        stage = FingerprintedStage("s")
        context = self.make_context(knob=2)
        context.reuse = {"s": StageCache("digest-1", {"product": "cached-product"})}
        Pipeline([stage]).run(context)
        assert stage.run_count == 1
        assert context.get("product") == "s-of-2"
        assert "reused" not in context.stage_spans[0].attributes

    def test_no_fingerprint_means_no_reuse(self):
        from repro.core.pipeline import StageCache

        stage = FingerprintedStage("s")
        context = self.make_context()  # no knob -> fingerprint None
        context.reuse = {"s": StageCache("digest-1", {"product": "cached-product"})}
        Pipeline([stage]).run(context)
        assert stage.run_count == 1
        assert "s" not in context.fingerprints

    def test_should_run_wins_over_reuse(self):
        from repro.core.pipeline import StageCache

        class OptedOutStage(FingerprintedStage):
            def should_run(self, context):
                return False

        stage = OptedOutStage("s")
        context = self.make_context(knob=1)
        context.reuse = {"s": StageCache("digest-1", {"product": "cached-product"})}
        Pipeline([stage]).run(context)
        assert stage.run_count == 0
        assert context.get("product") is None
        assert context.stage_spans[0].attributes == {"skipped": True}
        assert context.fingerprints == {}
