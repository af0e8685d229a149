"""Tests for the telemetry plane (repro.obs): tracer, metrics, rendering."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (
    NULL_TRACER,
    TRACE_SCHEMA,
    TRACE_SCHEMA_VERSION,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullTracer,
    Tracer,
)
from repro.obs.metrics import DEFAULT_LATENCY_BUCKETS
from repro.viz.ascii import render_trace_tree


class FakeClock:
    """A monotonic clock advancing by a fixed step per call."""

    def __init__(self, step=1.0, start=0.0):
        self.now = start - step
        self.step = step

    def __call__(self):
        self.now += self.step
        return self.now


def deterministic_tracer():
    """A tracer whose wall/cpu clocks tick exactly 1.0 / 0.5 s per call."""
    return Tracer(clock=FakeClock(1.0), cpu_clock=FakeClock(0.5))


class TestTracerNesting:
    def test_nested_spans_build_a_tree(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
            with tracer.span("sibling"):
                pass
        (root,) = tracer.roots
        assert root.name == "outer"
        assert [child.name for child in root.children] == ["inner", "sibling"]
        assert root.children[0].children == []

    def test_current_tracks_the_innermost_open_span(self):
        tracer = Tracer()
        assert tracer.current is None
        with tracer.span("a") as a:
            assert tracer.current is a
            with tracer.span("b") as b:
                assert tracer.current is b
            assert tracer.current is a
        assert tracer.current is None

    def test_attributes_and_counters(self):
        tracer = Tracer()
        with tracer.span("work", flavour="test") as span:
            span.set("towers", 40)
            span.count("records", 10)
            span.count("records", 5)
        assert span.attributes == {"flavour": "test", "towers": 40}
        assert span.counters == {"records": 15}

    def test_find_walks_the_whole_tree(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                with tracer.span("c"):
                    pass
        assert tracer.find("c").name == "c"
        assert tracer.find("nope") is None

    def test_sequential_roots(self):
        tracer = Tracer()
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        assert [span.name for span in tracer.roots] == ["first", "second"]


class TestTracerExceptionSafety:
    def test_exception_marks_span_and_propagates(self):
        tracer = Tracer()
        with pytest.raises(ValueError, match="boom"):
            with tracer.span("fragile"):
                raise ValueError("boom")
        (span,) = tracer.roots
        assert span.status == "error"
        assert "boom" in span.error
        assert span.wall_seconds >= 0.0

    def test_exception_unwinds_the_stack(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise RuntimeError("deep failure")
        assert tracer.current is None
        (outer,) = tracer.roots
        assert outer.status == "error"
        assert outer.children[0].status == "error"

    def test_successful_span_is_ok(self):
        tracer = Tracer()
        with tracer.span("fine"):
            pass
        assert tracer.roots[0].status == "ok"
        assert tracer.roots[0].error is None


class TestInjectableClockDeterminism:
    def test_single_span_timings_are_exact(self):
        tracer = deterministic_tracer()
        # Clock calls: epoch=0; enter=1 (start_s); exit=2 (wall = 2-0-1 = 1).
        with tracer.span("only"):
            pass
        (span,) = tracer.roots
        assert span.start_s == 1.0
        assert span.wall_seconds == 1.0
        assert span.cpu_seconds == 0.5

    def test_nested_span_timings_are_exact(self):
        tracer = deterministic_tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        (outer,) = tracer.roots
        (inner,) = outer.children
        # epoch=0, outer enters at 1, inner at 2, inner exits at 3 (wall 1),
        # outer exits at 4 (wall 3): the parent strictly covers the child.
        assert inner.start_s == 2.0
        assert inner.wall_seconds == 1.0
        assert outer.wall_seconds == 3.0
        assert outer.wall_seconds > inner.wall_seconds

    def test_two_runs_with_fake_clocks_produce_identical_dicts(self):
        def run():
            tracer = deterministic_tracer()
            with tracer.span("fit") as span:
                span.count("records", 7)
                with tracer.span("cluster"):
                    pass
            return tracer.to_dict()

        assert run() == run()


class TestTraceExport:
    def test_to_dict_schema(self):
        tracer = deterministic_tracer()
        with tracer.span("fit") as span:
            span.set("towers", 3)
            span.count("records", 9)
        payload = tracer.to_dict()
        assert payload["schema"] == TRACE_SCHEMA == "repro-trace"
        assert payload["schema_version"] == TRACE_SCHEMA_VERSION == 1
        assert "package_version" in payload
        (root,) = payload["spans"]
        assert root["name"] == "fit"
        assert root["wall_s"] == 1.0
        assert root["status"] == "ok"
        assert root["attributes"] == {"towers": 3}
        assert root["counters"] == {"records": 9}
        assert root["children"] == []

    def test_to_json_round_trips(self):
        tracer = Tracer()
        with tracer.span("fit"):
            with tracer.span("cluster"):
                pass
        payload = json.loads(tracer.to_json())
        assert payload == tracer.to_dict()

    def test_write_json(self, tmp_path):
        tracer = Tracer()
        with tracer.span("fit"):
            pass
        target = tracer.write_json(tmp_path / "trace.json")
        assert json.loads(target.read_text())["spans"][0]["name"] == "fit"


class TestNullTracer:
    def test_is_disabled_and_stateless(self):
        assert NULL_TRACER.enabled is False
        with NULL_TRACER.span("anything") as span:
            span.set("key", "value")
            span.count("n", 3)
        assert NULL_TRACER.current is span
        assert NULL_TRACER.find("anything") is None
        assert NullTracer().to_dict()["spans"] == []

    def test_null_span_swallows_nothing(self):
        with pytest.raises(ValueError):
            with NULL_TRACER.span("fragile"):
                raise ValueError("still visible")


class TestMemoryTracing:
    def test_span_records_allocation_peak(self):
        tracer = Tracer(trace_memory=True)
        with tracer.span("alloc"):
            buffer = np.zeros(1_000_000)  # ~8 MB
            del buffer
        (span,) = tracer.roots
        assert span.mem_peak_bytes is not None
        assert span.mem_peak_bytes > 4_000_000

    def test_parent_peak_covers_child(self):
        tracer = Tracer(trace_memory=True)
        with tracer.span("outer"):
            with tracer.span("inner"):
                buffer = np.zeros(1_000_000)
                del buffer
        (outer,) = tracer.roots
        (inner,) = outer.children
        assert outer.mem_peak_bytes >= inner.mem_peak_bytes > 0


class TestCounterAndGauge:
    def test_counter_accumulates(self):
        counter = Counter("records")
        counter.inc()
        counter.inc(4)
        assert counter.snapshot() == 5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("records").inc(-1)

    def test_gauge_holds_last_value(self):
        gauge = Gauge("depth")
        gauge.set(3.5)
        gauge.set(2.0)
        assert gauge.snapshot() == 2.0


class TestHistogramQuantiles:
    def test_observation_on_a_bound_lands_in_its_bucket(self):
        # Right-closed buckets: the first bound >= value owns the value.
        hist = Histogram("lat", buckets=(10.0, 20.0, 30.0))
        hist.observe(10.0)
        hist.observe(20.0)
        hist.observe(30.0)
        assert hist.bucket_counts == [1, 1, 1, 0]

    def test_quantiles_interpolate_within_buckets(self):
        hist = Histogram("lat", buckets=(10.0, 20.0, 30.0))
        hist.observe(5.0)
        hist.observe(15.0)
        # rank(q=0.5) = 1 falls on the first bucket: interpolates from the
        # observed min (5) to the bucket bound (10).
        assert hist.quantile(0.5) == 10.0
        # rank(q=1.0) = 2 falls on the second bucket, clamped to max = 15.
        assert hist.quantile(1.0) == 15.0

    def test_quantiles_clamped_to_observed_range(self):
        hist = Histogram("lat", buckets=(1.0, 2.0))
        hist.observe(1000.0)  # overflow bucket
        assert hist.quantile(0.5) == 1000.0
        assert hist.quantile(0.99) == 1000.0

    def test_single_value_histogram_is_degenerate(self):
        hist = Histogram("lat", buckets=(10.0,))
        for _ in range(5):
            hist.observe(7.0)
        assert hist.quantile(0.5) == 7.0
        assert hist.snapshot()["p99"] == 7.0

    def test_empty_histogram_snapshot(self):
        snap = Histogram("lat").snapshot()
        assert snap["count"] == 0
        assert snap["min"] is None and snap["max"] is None
        assert snap["p50"] is None
        assert math.isnan(Histogram("lat").quantile(0.5))

    def test_quantile_domain_checked(self):
        with pytest.raises(ValueError):
            Histogram("lat").quantile(1.5)

    @settings(max_examples=300, deadline=None)
    @given(
        samples=st.lists(
            st.floats(min_value=1e-6, max_value=30.0), min_size=1, max_size=200
        ),
        q=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_default_buckets_bound_the_relative_quantile_error(self, samples, q):
        # Each reported quantile shares a bucket with the exact nearest-rank
        # one, so it is off by at most one bucket's relative width.
        bounds = DEFAULT_LATENCY_BUCKETS
        width = max(upper / lower for lower, upper in zip(bounds, bounds[1:])) - 1.0
        assert bounds[0] == pytest.approx(1e-6) and bounds[-1] >= 30.0
        assert width < 0.26
        hist = Histogram("lat")
        for value in samples:
            hist.observe(value)
        ordered = sorted(samples)

        def exact(quantile: float) -> float:
            return ordered[max(math.ceil(quantile * len(ordered)), 1) - 1]

        reported = [(q, hist.quantile(q))]
        reported += zip((0.50, 0.95, 0.99), hist.percentiles().values())
        for quantile, value in reported:
            assert abs(value - exact(quantile)) <= width * exact(quantile) * (1 + 1e-12)

    def test_bounds_must_increase(self):
        with pytest.raises(ValueError):
            Histogram("lat", buckets=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("lat", buckets=())

    def test_snapshot_summary(self):
        hist = Histogram("lat", buckets=(10.0, 20.0))
        hist.observe(4.0)
        hist.observe(16.0)
        snap = hist.snapshot()
        assert snap["count"] == 2
        assert snap["sum"] == 20.0
        assert snap["min"] == 4.0
        assert snap["max"] == 16.0


class TestMetricsRegistry:
    def test_get_or_create_returns_the_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")

    def test_kind_conflicts_are_rejected(self):
        registry = MetricsRegistry()
        registry.counter("a")
        with pytest.raises(ValueError):
            registry.gauge("a")

    def test_snapshot_groups_by_kind(self):
        registry = MetricsRegistry()
        registry.counter("b").inc(2)
        registry.counter("a").inc(1)
        registry.gauge("g").set(0.5)
        registry.histogram("h").observe(1.0)
        snap = registry.snapshot()
        assert list(snap["counters"]) == ["a", "b"]  # sorted
        assert snap["counters"] == {"a": 1, "b": 2}
        assert snap["gauges"] == {"g": 0.5}
        assert snap["histograms"]["h"]["count"] == 1
        assert "h" in registry and len(registry) == 4


class TestRenderTraceTree:
    def test_renders_nested_spans_with_connectors(self):
        tracer = deterministic_tracer()
        with tracer.span("fit") as span:
            span.set("towers", 3)
            with tracer.span("cluster") as child:
                child.count("merges", 2)
            with tracer.span("decompose"):
                pass
        text = render_trace_tree(tracer)
        lines = text.splitlines()
        assert lines[0].startswith("fit")
        assert "towers=3" in lines[0]
        assert lines[1].startswith("├─ cluster")
        assert "merges=2" in lines[1]
        assert lines[2].startswith("└─ decompose")

    def test_renders_error_status(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("fragile"):
                raise RuntimeError("kaput")
        text = render_trace_tree(tracer)
        assert "ERROR" in text and "kaput" in text

    def test_accepts_trace_dict_and_span_dict(self):
        tracer = Tracer()
        with tracer.span("fit"):
            pass
        payload = tracer.to_dict()
        assert render_trace_tree(payload) == render_trace_tree(tracer)
        assert render_trace_tree(payload["spans"][0]).startswith("fit")

    def test_empty_and_invalid_traces(self):
        assert render_trace_tree(Tracer()) == "(empty trace)"
        with pytest.raises(TypeError):
            render_trace_tree(42)


class TestPipelineIntegration:
    @pytest.fixture(scope="class")
    def scenario(self):
        from repro.synth.scenario import ScenarioConfig, generate_scenario

        return generate_scenario(
            ScenarioConfig(num_towers=15, num_users=40, num_days=7, seed=2)
        )

    @pytest.fixture(scope="class")
    def traced_fit(self, scenario):
        from repro.core.model import TrafficPatternModel

        tracer = Tracer()
        model = TrafficPatternModel()
        result = model.fit(scenario.traffic, city=scenario.city, tracer=tracer)
        return tracer, result

    def test_fit_root_covers_all_six_stages(self, traced_fit):
        tracer, _ = traced_fit
        (root,) = tracer.roots
        assert root.name == "fit"
        assert [child.name for child in root.children] == [
            "vectorize", "cluster", "tune", "label", "spectral", "decompose",
        ]

    def test_stage_timings_extras_match_the_spans(self, traced_fit):
        # Satellite 1: the legacy extras keys stay populated and are now a
        # projection of the span tree.
        tracer, result = traced_fit
        (root,) = tracer.roots
        timings = result.extras["stage_timings"]
        assert list(timings) == [child.name for child in root.children]
        for child in root.children:
            assert timings[child.name] == pytest.approx(child.wall_seconds)

    def test_stage_spans_carry_counters(self, traced_fit):
        tracer, _ = traced_fit
        cluster = tracer.find("cluster")
        assert cluster.counters["merges"] == 14
        assert cluster.attributes["towers"] == 15

    def test_tune_counts_each_cluster_it_scored_once(self, traced_fit):
        # The default k = 10 … 2: ten clusters at the first cut, then one
        # new cluster per join.
        tracer, _ = traced_fit
        assert tracer.find("tune").counters == {"candidates": 9, "clusters_scored": 18}

    def test_label_times_poi_profiling_in_its_own_span(self, scenario, traced_fit):
        tracer, result = traced_fit
        label = tracer.find("label")
        assert [child.name for child in label.children] == ["poi_profile"]
        assert label.children[0].counters == {
            "towers": 15,
            "pois": len(scenario.city.pois),
            "pois_in_range": int(result.poi_profile.counts.sum()),
            "pairs_measured": result.poi_profile.pairs_measured,
        }
        assert result.poi_profile.counts.sum() > 0

    def test_prior_profile_path_has_no_poi_profile_span(self, scenario, tmp_path):
        from repro.core.model import TrafficPatternModel
        from repro.ingest.batch import RecordBatch

        model = TrafficPatternModel()
        model.fit(scenario.traffic, city=scenario.city)
        reloaded = TrafficPatternModel.load(model.save(tmp_path / "bundle"))
        tracer = Tracer()
        updated = reloaded.update(RecordBatch.empty(), tracer=tracer)
        label = tracer.find("label")
        assert label.attributes["source"] == "prior"
        assert label.children == []
        assert updated.labeling.as_dict() == model.result.labeling.as_dict()

    def test_streamed_fit_is_equal_traced_and_untraced(self):
        # A serial streamed fit computes the same model with tracing on,
        # and its trace covers the ingest and all six stages.
        from repro.core.model import TrafficPatternModel
        from repro.ingest.batch import RecordBatch
        from repro.ingest.dedup import clean_chunk
        from repro.utils.timeutils import SLOT_SECONDS, TimeWindow

        window = TimeWindow(num_days=7)
        rng = np.random.default_rng(2015)
        size, towers = 20_000, 24
        starts = rng.uniform(0, window.num_seconds, size=size)
        trace = RecordBatch(
            user_id=rng.integers(0, 2_000, size=size),
            tower_id=rng.integers(0, towers, size=size),
            start_s=starts,
            end_s=np.minimum(
                starts + rng.exponential(0.6 * SLOT_SECONDS, size=size),
                float(window.num_seconds),
            ),
            bytes_used=rng.lognormal(9.0, 1.0, size=size),
            network=np.where(rng.random(size) < 0.7, 1, 0).astype(np.uint8),
        )

        def fit(tracer=None):
            return TrafficPatternModel().fit_batches(
                (clean_chunk(chunk) for chunk in trace.iter_chunks(5_000)),
                window,
                list(range(towers)),
                tracer=tracer,
            )

        tracer = Tracer()
        plain, traced = fit(), fit(tracer)
        np.testing.assert_array_equal(plain.labels, traced.labels)
        np.testing.assert_array_equal(plain.vectorized.vectors, traced.vectorized.vectors)
        (root,) = tracer.roots
        assert {"fit", "ingest", "vectorize", "cluster", "tune", "label",
                "spectral", "decompose"} <= {span.name for span in root.walk()}

    def test_untraced_fit_produces_equal_result(self):
        from repro.core.model import TrafficPatternModel
        from repro.synth.scenario import ScenarioConfig, generate_scenario

        scenario = generate_scenario(
            ScenarioConfig(num_towers=12, num_users=30, num_days=7, seed=8)
        )
        plain = TrafficPatternModel().fit(scenario.traffic)
        traced = TrafficPatternModel().fit(scenario.traffic, tracer=Tracer())
        np.testing.assert_array_equal(plain.labels, traced.labels)
        np.testing.assert_array_equal(
            plain.vectorized.vectors, traced.vectorized.vectors
        )


class TestServerIntegration:
    @pytest.fixture(scope="class")
    def server(self):
        from repro.core.model import TrafficPatternModel
        from repro.io.server import ModelServer
        from repro.synth.scenario import ScenarioConfig, generate_scenario

        scenario = generate_scenario(
            ScenarioConfig(num_towers=15, num_users=40, num_days=7, seed=2)
        )
        model = TrafficPatternModel()
        model.fit(scenario.traffic, city=scenario.city)
        return ModelServer(model, tracer=Tracer(), metrics=MetricsRegistry())

    def test_stats_schema_is_registry_backed(self, server):
        tower = server.tower_ids()[0]
        server.decompose(tower)
        server.decompose(tower)
        stats = server.stats()
        assert set(stats) == {"queries", "query_latency"}
        assert stats["queries"] >= 2
        latency = stats["query_latency"]
        assert latency["count"] == stats["queries"]
        assert latency["p50"] is not None

    def test_each_query_records_a_span(self, server):
        names = [span.name for span in server._tracer.roots]
        assert "query:decompose" in names
