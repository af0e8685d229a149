"""Tests for the command-line interface (repro.cli)."""

import csv
from pathlib import Path

import pytest

from repro.cli import build_parser, main

#: ``--chunk-size``/``--workers`` variants of one streamed read: whole file,
#: chunked, and chunked through the two-worker shard pool.
STREAMING_VARIANTS = pytest.mark.parametrize(
    "streaming",
    [[], ["--chunk-size", "3"], ["--chunk-size", "3", "--workers", "2"]],
    ids=["whole", "chunked", "parallel"],
)


def _generated_trace(tmp_path):
    """Generate a small trace; returns ``(trace.csv, stations.csv)``."""
    trace_dir = tmp_path / "gen"
    assert main(
        [
            "generate",
            "--towers", "12",
            "--users", "40",
            "--days", "3",
            "--seed", "5",
            "--output", str(trace_dir),
        ]
    ) == 0
    return trace_dir / "trace.csv", trace_dir / "stations.csv"


def _edit_line(path, number, edit):
    """Replace line ``number`` (1-based) of a text file with ``edit(line)``."""
    lines = path.read_text().splitlines()
    lines[number - 1] = edit(lines[number - 1])
    path.write_text("\n".join(lines) + "\n")


def _malformed_trace(tmp_path):
    """Generate a small trace, then give its line 6 the unknown label ``4G``."""
    trace, stations = _generated_trace(tmp_path)
    _edit_line(trace, 6, lambda line: line.rsplit(",", 1)[0] + ",4G")
    return trace, stations


def _shm_segments():
    """Names of the multiprocessing shared-memory segments that exist now."""
    shm = Path("/dev/shm")
    return {path.name for path in shm.glob("psm_*")} if shm.is_dir() else set()


def _assert_one_line_error(capsys, prefix):
    err = capsys.readouterr().err
    assert err.startswith(f"repro-traffic: error: {prefix}"), err
    assert err.count("\n") == 1 and "Traceback" not in err
    return err


def _assert_one_line_trace_error(capsys, trace):
    assert "'4G'" in _assert_one_line_error(capsys, f"{trace}:6: ")


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_requires_output(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate"])

    def test_defaults(self):
        args = build_parser().parse_args(["fit", "--towers", "50"])
        assert args.towers == 50
        assert args.days == 28
        assert args.clusters is None
        assert args.cluster_backend == "auto"
        assert args.timings is False

    def test_cluster_backend_choices(self):
        args = build_parser().parse_args(["fit", "--cluster-backend", "nn_chain"])
        assert args.cluster_backend == "nn_chain"

    def test_unknown_cluster_backend_is_operational_error(self, capsys):
        # Unknown backend names fail as one-line exit-2 operational errors
        # (not argparse usage dumps), like --workers/--chunk-size.
        exit_code = main(["fit", "--towers", "10", "--cluster-backend", "bogus"])
        assert exit_code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "--cluster-backend" in err and "bogus" in err
        assert "nn_chain_lowmem" in err

    def test_generic_cluster_backend_is_rejected(self, capsys):
        # The full-matrix backend is a test oracle now, not a CLI choice.
        exit_code = main(["fit", "--towers", "10", "--cluster-backend", "generic"])
        assert exit_code == 2
        err = _assert_one_line_error(capsys, "--cluster-backend must be one of")
        assert "'generic'" in err

    @pytest.mark.parametrize("bad", ["0", "-5"])
    def test_nonpositive_cluster_tile_size_is_operational_error(self, bad, capsys):
        exit_code = main(["fit", "--towers", "10", "--cluster-tile-size", bad])
        assert exit_code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "--cluster-tile-size" in err and bad in err


class TestGenerate:
    def test_writes_trace_and_stations(self, tmp_path, capsys):
        exit_code = main(
            [
                "generate",
                "--towers", "10",
                "--users", "40",
                "--days", "2",
                "--seed", "3",
                "--output", str(tmp_path),
            ]
        )
        assert exit_code == 0
        assert (tmp_path / "trace.csv").exists()
        assert (tmp_path / "stations.csv").exists()
        output = capsys.readouterr().out
        assert "records" in output and "stations" in output
        with (tmp_path / "stations.csv").open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 10


class TestFit:
    def test_chunk_size_requires_trace(self):
        with pytest.raises(SystemExit, match="--chunk-size"):
            main(["fit", "--towers", "10", "--chunk-size", "1000"])

    def test_fit_on_synthetic_scenario(self, capsys):
        exit_code = main(
            [
                "fit",
                "--towers", "60",
                "--users", "100",
                "--days", "14",
                "--seed", "11",
                "--clusters", "5",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "identified 5 traffic patterns" in output
        assert "office" in output and "transport" in output

    def test_fit_with_explicit_backend_and_timings(self, capsys):
        exit_code = main(
            [
                "fit",
                "--towers", "40",
                "--users", "80",
                "--days", "7",
                "--seed", "11",
                "--clusters", "4",
                "--cluster-backend", "nn_chain",
                "--timings",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "pipeline stage timings:" in output
        for stage_name in ("vectorize", "cluster", "tune", "label", "spectral", "decompose"):
            assert stage_name in output

    def test_fit_with_tuner_reports_threshold(self, capsys):
        exit_code = main(
            [
                "fit",
                "--towers", "60",
                "--users", "100",
                "--days", "14",
                "--seed", "11",
                "--max-clusters", "8",
            ]
        )
        assert exit_code == 0
        assert "Davies-Bouldin minimised" in capsys.readouterr().out

    def test_fit_exports_assignments(self, tmp_path, capsys):
        assignments = tmp_path / "assignments.csv"
        exit_code = main(
            [
                "fit",
                "--towers", "60",
                "--users", "100",
                "--days", "14",
                "--seed", "11",
                "--clusters", "5",
                "--assignments", str(assignments),
            ]
        )
        assert exit_code == 0
        with assignments.open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 60
        assert {"tower_id", "cluster", "region"} <= set(rows[0])

    def test_fit_on_generated_trace(self, tmp_path, capsys):
        assert (
            main(
                [
                    "generate",
                    "--towers", "12",
                    "--users", "40",
                    "--days", "7",
                    "--seed", "5",
                    "--output", str(tmp_path),
                ]
            )
            == 0
        )
        exit_code = main(
            [
                "fit",
                "--input", str(tmp_path / "trace.csv"),
                "--stations", str(tmp_path / "stations.csv"),
                "--days", "7",
                "--clusters", "3",
            ]
        )
        assert exit_code == 0
        assert "identified 3 traffic patterns" in capsys.readouterr().out

    def test_input_without_stations_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["fit", "--input", str(tmp_path / "missing.csv"), "--days", "7"])

    @STREAMING_VARIANTS
    def test_malformed_trace_row_exits_2_with_one_liner(self, streaming, tmp_path, capsys):
        trace, stations = _malformed_trace(tmp_path)
        capsys.readouterr()
        segments = _shm_segments()
        exit_code = main(
            [
                "fit",
                "--input", str(trace),
                "--stations", str(stations),
                "--days", "3",
                "--clusters", "3",
                *streaming,
            ]
        )
        assert exit_code == 2
        _assert_one_line_trace_error(capsys, trace)
        assert _shm_segments() - segments == set()


    @STREAMING_VARIANTS
    @pytest.mark.parametrize("field", [2, 3, 4], ids=["start_s", "end_s", "bytes_used"])
    def test_non_finite_trace_value_exits_2_with_one_liner(
        self, streaming, field, tmp_path, capsys
    ):
        trace, stations = _generated_trace(tmp_path)

        def make_infinite(line):
            row = line.split(",")
            row[field] = "inf"
            return ",".join(row)

        _edit_line(trace, 6, make_infinite)
        capsys.readouterr()
        exit_code = main(
            [
                "fit",
                "--input", str(trace),
                "--stations", str(stations),
                "--days", "3",
                "--clusters", "3",
                *streaming,
            ]
        )
        assert exit_code == 2
        err = _assert_one_line_error(capsys, f"{trace}:6: ")
        assert "inf" in err

    @pytest.mark.parametrize("streaming", [[], ["--chunk-size", "500"]], ids=["whole", "chunked"])
    def test_repeated_station_id_exits_2_with_one_liner(self, streaming, tmp_path, capsys):
        trace, stations = _generated_trace(tmp_path)
        lines = stations.read_text().splitlines()
        repeated = lines[1].split(",")[0]
        stations.write_text("\n".join([*lines, lines[1]]) + "\n")
        capsys.readouterr()
        exit_code = main(
            [
                "fit",
                "--input", str(trace),
                "--stations", str(stations),
                "--days", "3",
                "--clusters", "3",
                *streaming,
            ]
        )
        assert exit_code == 2
        err = _assert_one_line_error(capsys, f"{stations}:{len(lines) + 1}: ")
        assert f"tower {repeated} " in err and "line 2" in err

    @pytest.mark.parametrize(
        "keep, clusters, message",
        [
            (0, ["--clusters", "3"], "no stations listed"),
            (2, ["--clusters", "3"], "2 towers cannot be cut into --clusters 3"),
            (2, [], "the tuner needs at least 3 towers"),
        ],
        ids=["header-only", "fewer-than-clusters", "too-few-for-the-tuner"],
    )
    def test_unusable_station_directory_exits_2_with_one_liner(
        self, keep, clusters, message, tmp_path, capsys
    ):
        trace, stations = _generated_trace(tmp_path)
        lines = stations.read_text().splitlines()
        stations.write_text("\n".join(lines[: 1 + keep]) + "\n")
        capsys.readouterr()
        exit_code = main(
            ["fit", "--input", str(trace), "--stations", str(stations), "--days", "3", *clusters]
        )
        assert exit_code == 2
        err = _assert_one_line_error(capsys, f"{stations}: ")
        assert message in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--towers", "3", "--clusters", "5"], "3 towers cannot be cut into --clusters 5"),
            (["--towers", "1"], "the tuner needs at least 3 towers"),
            (["--towers", "2"], "the tuner needs at least 3 towers"),
        ],
        ids=["fewer-than-clusters", "one-tower", "two-towers"],
    )
    def test_too_few_synthetic_towers_exit_2_with_one_liner(self, argv, message, capsys):
        assert main(["fit", *argv, "--days", "7"]) == 2
        err = _assert_one_line_error(capsys, "--towers: ")
        assert message in err

    def test_decompose_checks_the_tower_count_too(self, capsys):
        assert main(["decompose", "--towers", "3", "--clusters", "5", "--days", "7"]) == 2
        _assert_one_line_error(capsys, "--towers: ")


class TestUpdate:
    @STREAMING_VARIANTS
    def test_malformed_trace_row_exits_2_with_one_liner(self, streaming, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        assert main(
            [
                "fit",
                "--towers", "12",
                "--users", "40",
                "--days", "3",
                "--seed", "5",
                "--clusters", "3",
                "--save", str(bundle),
            ]
        ) == 0
        trace, _ = _malformed_trace(tmp_path)
        capsys.readouterr()
        segments = _shm_segments()
        exit_code = main(
            ["update", "--model", str(bundle), "--input", str(trace), *streaming]
        )
        assert exit_code == 2
        _assert_one_line_trace_error(capsys, trace)
        assert _shm_segments() - segments == set()
        # The failed update left the bundle as it was.
        assert main(["query", "--model", str(bundle)]) == 0


class TestDecompose:
    def test_decompose_default_towers(self, capsys):
        exit_code = main(
            [
                "decompose",
                "--towers", "60",
                "--users", "100",
                "--days", "14",
                "--seed", "11",
                "--clusters", "5",
                "--count", "3",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "residual" in output
        # Four primary components plus the tower and residual columns.
        header = output.strip().splitlines()[0]
        assert header.count("|") == 5

    def test_decompose_specific_tower(self, capsys):
        exit_code = main(
            [
                "decompose",
                "--towers", "60",
                "--users", "100",
                "--days", "14",
                "--seed", "11",
                "--clusters", "5",
                "--tower-ids", "0", "1",
            ]
        )
        assert exit_code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2 + 2  # header + separator + two towers


class TestPersistCLI:
    @pytest.fixture()
    def saved_bundle(self, tmp_path):
        """A small labelled model fitted on a synthetic scenario and saved."""
        bundle = tmp_path / "bundle"
        exit_code = main(
            [
                "fit",
                "--towers", "40",
                "--users", "80",
                "--days", "7",
                "--seed", "11",
                "--clusters", "5",
                "--save", str(bundle),
            ]
        )
        assert exit_code == 0
        return bundle

    def test_fit_save_writes_bundle(self, saved_bundle, capsys):
        assert (saved_bundle / "manifest.json").is_file()
        assert (saved_bundle / "arrays.npz").is_file()

    def test_query_summary(self, saved_bundle, capsys):
        capsys.readouterr()
        assert main(["query", "--model", str(saved_bundle)]) == 0
        output = capsys.readouterr().out
        assert "5 traffic patterns" in output
        assert "cluster" in output and "region" in output

    def test_query_region_decompose_pattern_and_json(self, saved_bundle, tmp_path, capsys):
        capsys.readouterr()
        json_path = tmp_path / "queries.json"
        exit_code = main(
            [
                "query",
                "--model", str(saved_bundle),
                "--region", "0", "1",
                "--decompose", "0",
                "--pattern", "0",
                "--json", str(json_path),
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "residual" in output
        assert "peak slot" in output
        import json as json_module

        payload = json_module.loads(json_path.read_text())
        assert {"regions", "decompositions", "patterns"} <= set(payload)
        assert payload["regions"][0]["tower_id"] == 0

    def test_query_decompose_all(self, saved_bundle, tmp_path, capsys):
        capsys.readouterr()
        json_path = tmp_path / "all.json"
        exit_code = main(
            [
                "query",
                "--model", str(saved_bundle),
                "--decompose-all",
                "--json", str(json_path),
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "convex decomposition of all 40 towers:" in output
        assert "residual" in output
        import json as json_module

        payload = json_module.loads(json_path.read_text())
        rows = payload["decompositions_all"]
        assert len(rows) == 40
        assert {"tower_id", "coefficients", "residual"} <= set(rows[0])
        assert sum(rows[0]["coefficients"].values()) == pytest.approx(1.0)

    def test_decompose_from_saved_model(self, saved_bundle, capsys):
        capsys.readouterr()
        exit_code = main(
            ["decompose", "--model", str(saved_bundle), "--tower-ids", "0", "1"]
        )
        assert exit_code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2 + 2  # header + separator + two towers

    def test_update_folds_new_trace_and_saves(self, saved_bundle, tmp_path, capsys):
        # Generate a compatible raw trace to fold in (towers overlap).
        trace_dir = tmp_path / "newday"
        assert main(
            [
                "generate",
                "--towers", "40",
                "--users", "30",
                "--days", "7",
                "--seed", "12",
                "--output", str(trace_dir),
            ]
        ) == 0
        capsys.readouterr()
        updated = tmp_path / "updated-bundle"
        exit_code = main(
            [
                "update",
                "--model", str(saved_bundle),
                "--input", str(trace_dir / "trace.csv"),
                "--save", str(updated),
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "folded" in output and "stages re-run" in output
        assert (updated / "manifest.json").is_file()
        assert main(["query", "--model", str(updated)]) == 0

    def test_bundle_recording_generic_backend_still_serves_and_updates(
        self, saved_bundle, tmp_path, capsys
    ):
        # Bundles saved while the full-matrix backend was a config choice
        # name it in their manifest; they load as "auto" and answer as before.
        import json as json_module

        def query(bundle, out):
            assert main(
                [
                    "query", "--model", str(bundle), "--summary", "--decompose-all",
                    "--json", str(out),
                ]
            ) == 0
            return capsys.readouterr().out.replace(str(out), "OUT"), out.read_text()

        capsys.readouterr()
        before = query(saved_bundle, tmp_path / "before.json")
        manifest_path = saved_bundle / "manifest.json"
        manifest = json_module.loads(manifest_path.read_text())
        manifest["config"]["cluster_backend"] = "generic"
        manifest_path.write_text(json_module.dumps(manifest))
        assert query(saved_bundle, tmp_path / "after.json") == before

        trace, _ = _generated_trace(tmp_path)
        updated = tmp_path / "updated"
        assert main(
            ["update", "--model", str(saved_bundle), "--input", str(trace), "--save", str(updated)]
        ) == 0
        saved = json_module.loads((updated / "manifest.json").read_text())
        assert saved["config"]["cluster_backend"] == "auto"
        assert main(["query", "--model", str(updated), "--decompose-all"]) == 0

    def test_update_chunked_matches_whole(self, saved_bundle, tmp_path, capsys):
        # A duplicate-free trace so per-chunk cleaning equals global cleaning
        # (cross-chunk duplicates are a documented fit/update caveat).
        import numpy as np

        from repro.ingest.batch import RecordBatch
        from repro.ingest.loader import write_records_csv
        from repro.io.persist import load_model

        rng = np.random.default_rng(21)
        n = 12_000
        starts = rng.uniform(0, 7 * 86_400.0 - 600.0, size=n)
        clean = RecordBatch(
            user_id=np.arange(n),  # unique users: no duplicates or conflicts
            tower_id=rng.integers(0, 40, size=n),
            start_s=starts,
            end_s=starts + rng.exponential(300.0, size=n),
            bytes_used=rng.lognormal(9.0, 1.0, size=n),
            network=np.zeros(n, dtype=np.uint8),
        )
        trace = tmp_path / "newday.csv"
        write_records_csv(clean, trace)
        capsys.readouterr()
        for save_name, chunk_args in (
            ("whole", []),
            ("chunked", ["--chunk-size", "5000"]),
        ):
            exit_code = main(
                [
                    "update",
                    "--model", str(saved_bundle),
                    "--input", str(trace),
                    "--save", str(tmp_path / save_name),
                    *chunk_args,
                ]
            )
            assert exit_code == 0
        assert "folded" in capsys.readouterr().out
        whole = load_model(tmp_path / "whole").result
        chunked = load_model(tmp_path / "chunked").result
        assert np.array_equal(
            whole.vectorized.raw.traffic, chunked.vectorized.raw.traffic
        )
        assert np.array_equal(whole.labels, chunked.labels)


class TestCLIErrorPaths:
    def test_missing_trace_exits_2_with_one_liner(self, tmp_path, capsys):
        missing = tmp_path / "absent.csv"
        stations = tmp_path / "stations.csv"
        stations.write_text("tower_id,address\n0,somewhere\n")
        exit_code = main(
            ["fit", "--input", str(missing), "--stations", str(stations), "--days", "7"]
        )
        assert exit_code == 2
        err = capsys.readouterr().err
        assert str(missing) in err
        assert len(err.strip().splitlines()) == 1

    def test_missing_stations_exits_2(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        trace.write_text("user_id,tower_id,start_s,end_s,bytes_used,network\n")
        exit_code = main(
            ["fit", "--input", str(trace), "--stations", str(tmp_path / "nope.csv")]
        )
        assert exit_code == 2
        assert "stations file not found" in capsys.readouterr().err

    def test_query_missing_bundle_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "no-bundle"
        assert main(["query", "--model", str(missing)]) == 2
        err = capsys.readouterr().err
        assert str(missing) in err and "error" in err

    def test_query_corrupt_manifest_exits_2(self, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        bundle.mkdir()
        (bundle / "manifest.json").write_text("{ definitely not json")
        (bundle / "arrays.npz").write_bytes(b"")
        assert main(["query", "--model", str(bundle)]) == 2
        err = capsys.readouterr().err
        assert "corrupt manifest" in err
        assert len(err.strip().splitlines()) == 1

    def test_query_future_schema_exits_2(self, tmp_path, capsys):
        import json as json_module

        from repro.io.persist import SCHEMA_VERSION

        bundle = tmp_path / "bundle"
        bundle.mkdir()
        (bundle / "manifest.json").write_text(
            json_module.dumps(
                {"format": "repro-traffic-model", "schema_version": SCHEMA_VERSION + 7}
            )
        )
        assert main(["query", "--model", str(bundle)]) == 2
        assert "newer than the supported version" in capsys.readouterr().err

    def test_update_missing_input_exits_2(self, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        assert main(
            [
                "fit",
                "--towers", "20",
                "--users", "40",
                "--days", "3",
                "--seed", "2",
                "--clusters", "3",
                "--save", str(bundle),
            ]
        ) == 0
        capsys.readouterr()
        exit_code = main(
            ["update", "--model", str(bundle), "--input", str(tmp_path / "gone.csv")]
        )
        assert exit_code == 2
        assert "input trace not found" in capsys.readouterr().err

    def test_query_unlabelled_model_region_exits_2(self, tmp_path, capsys):
        # A model fitted from a bare trace has no geographic labelling.
        trace_dir = tmp_path / "gen"
        assert main(
            [
                "generate",
                "--towers", "15",
                "--users", "40",
                "--days", "2",
                "--seed", "4",
                "--output", str(trace_dir),
            ]
        ) == 0
        bundle = tmp_path / "bundle"
        assert main(
            [
                "fit",
                "--input", str(trace_dir / "trace.csv"),
                "--stations", str(trace_dir / "stations.csv"),
                "--days", "2",
                "--clusters", "3",
                "--save", str(bundle),
            ]
        ) == 0
        capsys.readouterr()
        assert main(["query", "--model", str(bundle), "--region", "0"]) == 2
        err = capsys.readouterr().err
        assert "without geographic labelling" in err
        assert len(err.strip().splitlines()) == 1

    def test_update_fully_out_of_window_exits_2(self, tmp_path, capsys):
        import numpy as np

        from repro.ingest.batch import RecordBatch
        from repro.ingest.loader import write_records_csv

        bundle = tmp_path / "bundle"
        assert main(
            [
                "fit",
                "--towers", "20",
                "--users", "40",
                "--days", "2",
                "--seed", "2",
                "--clusters", "3",
                "--save", str(bundle),
            ]
        ) == 0
        # Every record starts after the model's 2-day window ends.
        n = 50
        starts = np.linspace(3 * 86_400.0, 4 * 86_400.0, n)
        late = RecordBatch(
            user_id=np.arange(n),
            tower_id=np.zeros(n, dtype=np.int64),
            start_s=starts,
            end_s=starts + 60.0,
            bytes_used=np.full(n, 1000.0),
            network=np.zeros(n, dtype=np.uint8),
        )
        trace = tmp_path / "late.csv"
        write_records_csv(late, trace)
        capsys.readouterr()
        exit_code = main(["update", "--model", str(bundle), "--input", str(trace)])
        assert exit_code == 2
        err = capsys.readouterr().err
        assert "window" in err and str(trace) in err
        assert len(err.strip().splitlines()) == 1


class TestParallelCLI:
    """Validation and end-to-end paths of --workers (shard-parallel ingest)."""

    def _generate(self, tmp_path, *, towers=20, days=3, seed=9):
        trace_dir = tmp_path / "gen"
        assert main(
            [
                "generate",
                "--towers", str(towers),
                "--users", "50",
                "--days", str(days),
                "--seed", str(seed),
                "--output", str(trace_dir),
            ]
        ) == 0
        return trace_dir

    def test_chunk_size_zero_exits_2(self, capsys):
        exit_code = main(["fit", "--towers", "10", "--chunk-size", "0"])
        assert exit_code == 2
        err = capsys.readouterr().err
        assert "--chunk-size must be a positive record count" in err
        assert len(err.strip().splitlines()) == 1

    def test_chunk_size_negative_exits_2(self, capsys):
        assert main(["fit", "--towers", "10", "--chunk-size", "-5"]) == 2
        assert "--chunk-size must be a positive" in capsys.readouterr().err

    def test_workers_below_minus_one_exits_2(self, capsys):
        exit_code = main(["fit", "--towers", "10", "--workers", "-3"])
        assert exit_code == 2
        err = capsys.readouterr().err
        assert "--workers must be >= -1" in err
        assert len(err.strip().splitlines()) == 1

    def test_fit_workers_without_streaming_input_exits_2(self, capsys):
        # Not silently serial: --workers without --input/--chunk-size errors.
        exit_code = main(["fit", "--towers", "10", "--workers", "2"])
        assert exit_code == 2
        err = capsys.readouterr().err
        assert "--workers needs a streaming input" in err
        assert len(err.strip().splitlines()) == 1

    def test_fit_workers_with_trace_but_no_chunk_size_exits_2(self, tmp_path, capsys):
        trace_dir = self._generate(tmp_path)
        capsys.readouterr()
        exit_code = main(
            [
                "fit",
                "--input", str(trace_dir / "trace.csv"),
                "--stations", str(trace_dir / "stations.csv"),
                "--workers", "2",
            ]
        )
        assert exit_code == 2
        assert "--workers needs a streaming input" in capsys.readouterr().err

    def test_update_workers_without_chunk_size_exits_2(self, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        assert main(
            [
                "fit",
                "--towers", "15",
                "--users", "40",
                "--days", "2",
                "--seed", "2",
                "--clusters", "3",
                "--save", str(bundle),
            ]
        ) == 0
        capsys.readouterr()
        exit_code = main(
            [
                "update",
                "--model", str(bundle),
                "--input", str(bundle / "whatever.csv"),
                "--workers", "2",
            ]
        )
        assert exit_code == 2
        err = capsys.readouterr().err
        assert "--workers needs --chunk-size" in err
        assert len(err.strip().splitlines()) == 1

    def test_parallel_fit_matches_serial_chunked_fit(self, tmp_path, capsys):
        import numpy as np

        from repro.io.persist import load_model

        trace_dir = self._generate(tmp_path)
        bundles = {}
        for name, extra in (
            ("serial", []),
            ("parallel", ["--workers", "2"]),
        ):
            bundle = tmp_path / name
            assert main(
                [
                    "fit",
                    "--input", str(trace_dir / "trace.csv"),
                    "--stations", str(trace_dir / "stations.csv"),
                    "--days", "3",
                    "--clusters", "3",
                    "--chunk-size", "4000",
                    "--save", str(bundle),
                    *extra,
                ]
            ) == 0
            bundles[name] = load_model(bundle).result
        capsys.readouterr()
        serial = bundles["serial"].vectorized.raw.traffic
        parallel = bundles["parallel"].vectorized.raw.traffic
        assert np.allclose(parallel, serial, rtol=1e-9, atol=0.0)
        # The parallel bundle serves queries like any other.
        assert main(["query", "--model", str(tmp_path / "parallel")]) == 0
        assert "traffic patterns" in capsys.readouterr().out

    def test_parallel_update_matches_serial_chunked_update(self, tmp_path, capsys):
        import numpy as np

        from repro.io.persist import load_model

        trace_dir = self._generate(tmp_path, seed=13)
        base = tmp_path / "base"
        assert main(
            [
                "fit",
                "--input", str(trace_dir / "trace.csv"),
                "--stations", str(trace_dir / "stations.csv"),
                "--days", "3",
                "--clusters", "3",
                "--save", str(base),
            ]
        ) == 0
        fresh_dir = self._generate(tmp_path / "fresh", seed=14)
        for name, extra in (
            ("serial-upd", []),
            ("parallel-upd", ["--workers", "2"]),
        ):
            assert main(
                [
                    "update",
                    "--model", str(base),
                    "--input", str(fresh_dir / "trace.csv"),
                    "--chunk-size", "4000",
                    "--save", str(tmp_path / name),
                    *extra,
                ]
            ) == 0
        capsys.readouterr()
        serial = load_model(tmp_path / "serial-upd").result.vectorized.raw.traffic
        parallel = load_model(tmp_path / "parallel-upd").result.vectorized.raw.traffic
        assert np.allclose(parallel, serial, rtol=1e-9, atol=0.0)


class TestTraceCLI:
    """The --trace telemetry flag and the stats subcommand."""

    STAGES = ("vectorize", "cluster", "tune", "label", "spectral", "decompose")

    def _generate(self, trace_dir, *, towers=20, days=3, seed=9):
        assert main(
            [
                "generate",
                "--towers", str(towers),
                "--users", "50",
                "--days", str(days),
                "--seed", str(seed),
                "--output", str(trace_dir),
            ]
        ) == 0
        return trace_dir

    def test_traced_fit_prints_span_tree(self, capsys):
        assert main(["fit", "--towers", "15", "--days", "7", "--trace"]) == 0
        out = capsys.readouterr().out
        assert "trace:" in out
        for stage in self.STAGES:
            assert stage in out

    def test_traced_fit_writes_schema_valid_json(self, tmp_path, capsys):
        import json

        target = tmp_path / "trace.json"
        assert main(
            ["fit", "--towers", "15", "--days", "7", "--trace", str(target)]
        ) == 0
        payload = json.loads(target.read_text())
        assert payload["schema"] == "repro-trace"
        assert payload["schema_version"] == 1
        (root,) = payload["spans"]
        assert root["name"] == "fit"
        assert [child["name"] for child in root["children"]] == list(self.STAGES)
        for span in root["children"]:
            assert span["wall_s"] >= 0.0
            assert span["status"] in ("ok", "error")
        assert "metrics" in payload

    def test_traced_parallel_fit_records_worker_spans(self, tmp_path, capsys):
        import json

        trace_dir = self._generate(tmp_path / "gen")
        target = tmp_path / "trace.json"
        bundle = tmp_path / "bundle"
        assert main(
            [
                "fit",
                "--input", str(trace_dir / "trace.csv"),
                "--stations", str(trace_dir / "stations.csv"),
                "--days", "3",
                "--clusters", "3",
                "--chunk-size", "4000",
                "--workers", "2",
                "--save", str(bundle),
                "--trace", str(target),
            ]
        ) == 0
        payload = json.loads(target.read_text())
        (root,) = payload["spans"]
        names = [child["name"] for child in root["children"]]
        assert names == ["ingest", *self.STAGES]
        ingest = root["children"][0]
        workers = [child["name"] for child in ingest["children"]]
        assert workers == ["worker-0", "worker-1"]
        total = sum(
            child["counters"]["records_seen"] for child in ingest["children"]
        )
        assert total == ingest["counters"]["records_seen"] > 0
        assert payload["metrics"]["counters"]["ingest.records_seen"] == total
        # The sidecar next to the bundle carries the same trace.
        sidecar = json.loads((bundle / "trace.json").read_text())
        assert sidecar["schema"] == "repro-trace"
        assert [span["name"] for span in sidecar["spans"]] == ["fit"]

    def test_tracing_leaves_saved_bundle_identical(self, tmp_path, capsys):
        import json

        plain, traced = tmp_path / "plain", tmp_path / "traced"
        for bundle, extra in ((plain, []), (traced, ["--trace"])):
            assert main(
                [
                    "fit",
                    "--towers", "15",
                    "--days", "7",
                    "--seed", "4",
                    "--clusters", "3",
                    "--save", str(bundle),
                    *extra,
                ]
            ) == 0
        # Every persisted array is bit-for-bit identical with and without
        # tracing, and the manifest differs only in the wall-clock stage
        # timings (which vary between *any* two runs).
        assert (traced / "arrays.npz").read_bytes() == (plain / "arrays.npz").read_bytes()
        manifests = []
        for bundle in (plain, traced):
            manifest = json.loads((bundle / "manifest.json").read_text())
            manifest["extras"].pop("stage_timings")
            manifests.append(manifest)
        assert manifests[0] == manifests[1]
        assert (traced / "trace.json").is_file()
        assert not (plain / "trace.json").exists()

    def test_trace_into_missing_directory_exits_2(self, capsys):
        exit_code = main(
            ["fit", "--towers", "10", "--trace", "/nonexistent/dir/trace.json"]
        )
        assert exit_code == 2
        err = capsys.readouterr().err
        assert "cannot write trace" in err
        assert len(err.strip().splitlines()) == 1

    def test_trace_target_directory_exits_2(self, tmp_path, capsys):
        exit_code = main(["fit", "--towers", "10", "--trace", str(tmp_path)])
        assert exit_code == 2
        err = capsys.readouterr().err
        assert "is a directory" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.fixture()
    def saved_bundle(self, tmp_path):
        bundle = tmp_path / "bundle"
        assert main(
            [
                "fit",
                "--towers", "30",
                "--users", "60",
                "--days", "7",
                "--seed", "11",
                "--clusters", "4",
                "--save", str(bundle),
            ]
        ) == 0
        return bundle

    def test_traced_query_prints_query_spans(self, saved_bundle, capsys):
        capsys.readouterr()
        assert main(
            ["query", "--model", str(saved_bundle), "--decompose-all", "--trace"]
        ) == 0
        out = capsys.readouterr().out
        assert "query:decompose_all" in out

    def test_traced_update_writes_sidecar(self, saved_bundle, tmp_path, capsys):
        import json

        trace_dir = self._generate(tmp_path / "fresh", towers=30, days=7, seed=11)
        updated = tmp_path / "updated"
        assert main(
            [
                "update",
                "--model", str(saved_bundle),
                "--input", str(trace_dir / "trace.csv"),
                "--save", str(updated),
                "--trace",
            ]
        ) == 0
        sidecar = json.loads((updated / "trace.json").read_text())
        assert [span["name"] for span in sidecar["spans"]] == ["update"]

    def test_stats_without_sidecar(self, saved_bundle, capsys):
        capsys.readouterr()
        assert main(["stats", "--model", str(saved_bundle)]) == 0
        out = capsys.readouterr().out
        assert "repro-traffic-model" in out
        assert "stage timings" in out
        assert "trace sidecar:    none" in out

    def test_stats_renders_sidecar(self, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        assert main(
            [
                "fit",
                "--towers", "15",
                "--days", "7",
                "--clusters", "3",
                "--save", str(bundle),
                "--trace",
            ]
        ) == 0
        capsys.readouterr()
        assert main(["stats", "--model", str(bundle)]) == 0
        out = capsys.readouterr().out
        assert "trace (from trace.json sidecar):" in out
        for stage in self.STAGES:
            assert stage in out

    def test_stats_missing_bundle_exits_2(self, tmp_path, capsys):
        exit_code = main(["stats", "--model", str(tmp_path / "nope")])
        assert exit_code == 2
        assert "no such model bundle" in capsys.readouterr().err


class TestServeCLI:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve", "--model", "bundle"])
        assert args.host == "127.0.0.1"
        assert args.port == 8350
        assert args.no_mmap is False
        assert set(vars(args)) == {"command", "handler", "model", "host", "port", "no_mmap"}

    def test_serve_requires_model(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])

    @pytest.mark.parametrize(
        "flags",
        [
            ["--port", "70000"],
            ["--port", "-1"],
        ],
    )
    def test_invalid_options_exit_2(self, flags, capsys):
        exit_code = main(["serve", "--model", "bundle", *flags])
        assert exit_code == 2
        assert "repro-traffic: error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--workers", "4"],
            ["--batch-window-ms", "2"],
            ["--max-batch", "64"],
            ["--cache-size", "4096"],
        ],
    )
    def test_removed_options_are_rejected(self, flags, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--model", "bundle", *flags])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err

    def test_missing_bundle_exits_2(self, tmp_path, capsys):
        exit_code = main(["serve", "--model", str(tmp_path / "nope"), "--port", "0"])
        assert exit_code == 2
        assert "no such model bundle" in capsys.readouterr().err


class TestStatsURL:
    @pytest.fixture(scope="class")
    def saved_bundle(self, tmp_path_factory):
        bundle = tmp_path_factory.mktemp("serve-cli") / "bundle"
        assert main(
            [
                "fit",
                "--towers", "20",
                "--days", "7",
                "--clusters", "3",
                "--save", str(bundle),
            ]
        ) == 0
        return bundle

    def test_requires_exactly_one_source(self, capsys):
        assert main(["stats"]) == 2
        assert "exactly one of" in capsys.readouterr().err
        assert main(["stats", "--model", "b", "--url", "http://x"]) == 2
        assert "exactly one of" in capsys.readouterr().err

    def test_unreachable_url_exits_2(self, capsys):
        exit_code = main(["stats", "--url", "http://127.0.0.1:1"])
        assert exit_code == 2
        assert "cannot fetch serving stats" in capsys.readouterr().err

    def test_renders_live_snapshot(self, saved_bundle, capsys):
        import json as json_module
        import urllib.request

        from repro.io.service import ModelService, start_service

        capsys.readouterr()
        with start_service(ModelService(saved_bundle)) as handle:
            tower = json_module.loads(
                urllib.request.urlopen(handle.url + "/summary", timeout=30).read()
            )
            assert tower["num_towers"] == 20
            assert main(["stats", "--url", handle.url]) == 0
        out = capsys.readouterr().out
        assert f"live serving stats from {handle.url}" in out
        assert "model fingerprint:" in out
        assert "query latency:" in out
        assert "result cache" not in out and "micro-batching" not in out
        assert str(saved_bundle) in out
