"""Tests for repro.io.service — the networked serving plane.

Covers the row-lookup contract (replies never depend on how requests were
grouped, and a built server never solves), the serving state (a server
reads no towers × slots grid, replies as the in-memory fit does, and its
import path loads no fit-stack module), atomic hot-swap under load, the
HTTP surface itself (routing, error mapping, tower-id parsing, keep-alive
transport), the request reader's limits on hostile input, and a shared
server under concurrent threads.
"""

import asyncio
import http.client
import io
import itertools
import json
import logging
import os
import shutil
import socket
import struct
import subprocess
import sys
import threading
import time
import zipfile
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import ModelConfig
from repro.core.model import TrafficPatternModel
from repro.io.persist import ARRAYS_NAME, MANIFEST_NAME, PersistError, load_model
from repro.io.server import ModelServer
from repro.io.service import (
    MAX_BODY_BYTES,
    MAX_HEADER_LINES,
    ModelService,
    ServiceError,
    start_service,
)
from repro.synth.scenario import ScenarioConfig, generate_scenario

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="module")
def second_model():
    """A second, differently-seeded fitted model (hot-swap target)."""
    scenario = generate_scenario(
        ScenarioConfig(num_towers=40, num_users=200, num_days=7, seed=77)
    )
    model = TrafficPatternModel(ModelConfig(max_clusters=6))
    model.fit(scenario.traffic, city=scenario.city)
    return model


@pytest.fixture(scope="module")
def bundle(fitted_model, tmp_path_factory):
    return fitted_model.save(tmp_path_factory.mktemp("bundles") / "bundle_a")


@pytest.fixture(scope="module")
def second_bundle(second_model, tmp_path_factory):
    return second_model.save(tmp_path_factory.mktemp("bundles") / "bundle_b")


def dispatch(service: ModelService, method: str, path: str, body=None):
    payload = b"" if body is None else json.dumps(body).encode()
    return asyncio.run(service.dispatch(method, path, payload))


def request_raw(connection, method, path, body=None) -> tuple[int, bytes]:
    payload = None if body is None else json.dumps(body).encode()
    connection.request(
        method, path, body=payload, headers={"Content-Type": "application/json"}
    )
    response = connection.getresponse()
    return response.status, response.read()


def receive_all(handle, data: bytes) -> bytes:
    """Send raw bytes and return everything read until the server closes."""
    with socket.create_connection((handle.host, handle.port), timeout=30) as sock:
        sock.sendall(data)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


def exchange(handle, data: bytes) -> tuple[bytes, bytes]:
    """Send raw bytes, read until the server closes; return (head, body)."""
    head, _, body = receive_all(handle, data).partition(b"\r\n\r\n")
    return head, body


def every_reply(service: ModelService) -> dict:
    """The status and JSON body of every query route, for every tower."""
    towers = service.active.server.tower_ids()
    requests = [("GET", "/summary", None)]
    for kind in ("pattern", "decompose", "region"):
        requests += [("GET", f"/{kind}/{tower}", None) for tower in towers]
    requests += [("POST", f"/{kind}", {"towers": towers}) for kind in ("decompose", "region")]
    replies = {}
    for method, path, body in requests:
        status, payload = dispatch(service, method, path, body)
        replies[method, path] = (status, json.dumps(payload))
    return replies


def copy_bundle(source, target, *, drop=()):
    """Copy a bundle, leaving out the arrays named in ``drop`` (as older bundles do)."""
    shutil.copytree(source, target)
    if drop:
        manifest = json.loads((target / MANIFEST_NAME).read_text())
        with np.load(target / ARRAYS_NAME) as archive:
            arrays = {key: archive[key] for key in archive.files if key not in drop}
        for key in drop:
            del manifest["arrays"][key]
        with (target / ARRAYS_NAME).open("wb") as handle:
            np.savez(handle, **arrays)
        (target / MANIFEST_NAME).write_text(json.dumps(manifest))
    return target


def flip_data_bytes(bundle, member: str, count: int = 64) -> None:
    """Invert the last ``count`` data bytes of one stored ``.npy`` archive member."""
    path = bundle / ARRAYS_NAME
    blob = bytearray(path.read_bytes())
    with zipfile.ZipFile(io.BytesIO(bytes(blob))) as archive:
        info = archive.getinfo(member)
    name_len, extra_len = struct.unpack_from("<HH", blob, info.header_offset + 26)
    end = info.header_offset + 30 + name_len + extra_len + info.compress_size
    for offset in range(end - count, end):
        blob[offset] ^= 0xFF
    path.write_bytes(bytes(blob))


class TestServingState:
    """A server reads only the small arrays, and replies as the full model would."""

    def test_in_memory_and_bundle_servers_reply_identically(self, fitted_model, bundle):
        in_memory = ModelService(server=ModelServer(fitted_model))
        assert every_reply(in_memory) == every_reply(ModelService(bundle))

    def test_grids_are_never_read(self, bundle, tmp_path):
        damaged = copy_bundle(bundle, tmp_path / "damaged")
        for member in ("raw.traffic.npy", "vectorized.vectors.npy"):
            flip_data_bytes(damaged, member)
        assert every_reply(ModelService(damaged)) == every_reply(ModelService(bundle))
        service = ModelService(bundle)
        assert dispatch(service, "POST", "/reload", {"model": str(damaged)})[0] == 200
        assert service.active.path == damaged
        with pytest.raises(PersistError, match="raw.traffic|vectorized.vectors|corrupt"):
            load_model(damaged)

    def test_cluster_lookups_match_the_fit_result(self, fitted_model, bundle):
        from repro.synth.regions import RegionType

        result = fitted_model.result
        server = ModelServer.from_artifact(bundle)
        for region in RegionType:
            try:
                expected = result.cluster_of_region(region)
            except KeyError:
                with pytest.raises(KeyError):
                    server.cluster_of_region(region)
            else:
                assert server.cluster_of_region(region) == expected
        for cluster in range(result.num_clusters):
            members = result.tower_ids[result.cluster_members(cluster)]
            assert server.towers_of_cluster(cluster) == members.tolist()
        assert server.has_components

    def test_cli_decompose_never_reads_the_grids(self, bundle, tmp_path, capsys):
        from repro.cli import main

        damaged = copy_bundle(bundle, tmp_path / "damaged")
        for member in ("raw.traffic.npy", "vectorized.vectors.npy"):
            flip_data_bytes(damaged, member)
        outputs = []
        for path in (bundle, damaged):
            for towers in ([], ["--tower-ids", "3", "0", "17"]):
                assert main(["decompose", "--model", str(path), *towers]) == 0
                outputs.append(capsys.readouterr().out)
        assert outputs[:2] == outputs[2:]
        assert outputs[0] != outputs[1]

    def test_bundle_without_stored_totals_serves_identically(self, bundle, tmp_path):
        older = copy_bundle(
            bundle, tmp_path / "older", drop=("raw.total_bytes", "raw.peak_slot")
        )
        assert every_reply(ModelService(older)) == every_reply(ModelService(bundle))


class TestTowerIdParsing:
    """A tower id is an integer or a string of ASCII digits; nothing else."""

    @pytest.mark.parametrize(
        "method, path, body",
        [
            ("POST", "/region", {"towers": [1.7]}),
            ("POST", "/region", {"towers": [True]}),
            ("GET", "/region/1_0", None),
            ("GET", "/region/\u0661", None),
            ("POST", "/decompose", {"towers": ["\u0661"]}),
            ("POST", "/decompose", {"towers": ["+1"]}),
            ("POST", "/decompose", {"towers": [2.0]}),
        ],
        ids=["float", "bool", "underscore", "arabic-indic-get", "arabic-indic-post",
             "plus-sign", "integral-float"],
    )
    def test_non_integer_ids_get_a_400(self, fitted_model, method, path, body):
        service = ModelService(server=ModelServer(fitted_model))
        assert {1, 10} <= set(service.active.server.tower_ids())
        status, payload = dispatch(service, method, path, body)
        assert status == 400
        assert "not an integer" in payload["error"] and "\n" not in payload["error"]

    def test_integer_ids_and_digit_strings_are_accepted(self, fitted_model):
        service = ModelService(server=ModelServer(fitted_model))
        expected = dispatch(service, "GET", "/region/10")[1]
        assert dispatch(service, "POST", "/region", {"towers": [10, "10", "010"]}) == (
            200, {"regions": [expected] * 3}
        )
        assert dispatch(service, "GET", "/region/-1")[0] == 404
        assert dispatch(service, "GET", "/region/" + "9" * 5000)[0] == 400


class TestModelFingerprint:
    def test_stable_and_short(self, fitted_model, bundle):
        first = ModelServer(fitted_model).fingerprint
        assert first == ModelServer(fitted_model).fingerprint
        assert first == ModelServer.from_artifact(bundle).fingerprint
        assert len(first) == 16

    def test_distinguishes_models(self, fitted_model, second_model):
        assert ModelServer(fitted_model).fingerprint != ModelServer(second_model).fingerprint

    def test_without_stage_fingerprints_the_served_arrays_are_hashed(
        self, fitted_model, second_model, tmp_path, monkeypatch
    ):
        for model in (fitted_model, second_model):
            extras = dict(model.result.extras)
            del extras["stage_fingerprints"]
            monkeypatch.setattr(model.result, "extras", extras)
        first = ModelServer(fitted_model).fingerprint
        bundle = fitted_model.save(tmp_path / "bundle")
        assert ModelServer.from_artifact(bundle).fingerprint == first
        assert ModelServer(second_model).fingerprint != first


class TestRowLookups:
    def test_replies_do_not_depend_on_grouping(self, bundle, second_bundle):
        """Per-tower GETs, one whole-bundle POST and decompose_all() rows are
        byte-equal, on both bundles and across a reload."""
        with start_service(ModelService(bundle)) as handle:
            connection = http.client.HTTPConnection(handle.host, handle.port, timeout=30)
            for generation, target in enumerate((bundle, second_bundle), start=1):
                if generation > 1:
                    status, _ = request_raw(
                        connection, "POST", "/reload", {"model": str(target)}
                    )
                    assert status == 200
                rows = ModelServer.from_artifact(target).decompose_all().as_rows()
                towers = [row["tower_id"] for row in rows]
                singles = [
                    request_raw(connection, "GET", f"/decompose/{tower}")
                    for tower in towers
                ]
                assert singles == [(200, json.dumps(row).encode()) for row in rows]
                whole = request_raw(connection, "POST", "/decompose", {"towers": towers})
                assert whole == (200, json.dumps({"decompositions": rows}).encode())
            connection.close()

    def test_region_and_pattern_replies_match_the_server(self, bundle, second_bundle):
        """Per-tower GETs and one whole-bundle POST /region equal the server's
        own answers, on both bundles and across a reload."""
        with start_service(ModelService(bundle)) as handle:
            connection = http.client.HTTPConnection(handle.host, handle.port, timeout=30)
            for generation, target in enumerate((bundle, second_bundle), start=1):
                if generation > 1:
                    status, _ = request_raw(
                        connection, "POST", "/reload", {"model": str(target)}
                    )
                    assert status == 200
                server = ModelServer.from_artifact(target)
                towers = server.tower_ids()
                regions = [
                    {"tower_id": tower, "region": server.predict_region(tower).value}
                    for tower in towers
                ]
                singles = [
                    request_raw(connection, "GET", f"/region/{tower}") for tower in towers
                ]
                assert singles == [(200, json.dumps(row).encode()) for row in regions]
                whole = request_raw(connection, "POST", "/region", {"towers": towers})
                assert whole == (200, json.dumps({"regions": regions}).encode())
                patterns = [
                    request_raw(connection, "GET", f"/pattern/{tower}") for tower in towers
                ]
                assert patterns == [
                    (200, json.dumps(server.pattern_of(tower).as_row()).encode())
                    for tower in towers
                ]
            connection.close()

    def test_post_keeps_request_order_and_duplicates(self, fitted_model):
        service = ModelService(server=ModelServer(fitted_model))
        rows = service.active.server.decompose_all().as_rows()
        picks = [3, 0, 3, 1]
        towers = [rows[i]["tower_id"] for i in picks]
        requested = [towers[0], str(towers[1]), *towers[2:]]  # ids may be strings
        status, payload = dispatch(service, "POST", "/decompose", {"towers": requested})
        assert status == 200
        assert payload["decompositions"] == [rows[i] for i in picks]
        status, payload = dispatch(service, "POST", "/region", {"towers": requested})
        assert status == 200
        assert [row["tower_id"] for row in payload["regions"]] == towers

    def test_a_built_server_never_solves(self, bundle, monkeypatch):
        service = ModelService(bundle)
        server = service.active.server
        tower = server.tower_ids()[0]

        def no_solve(*args, **kwargs):
            raise AssertionError("a query ran the batched solver")

        monkeypatch.setattr(
            "repro.decompose.batch.simplex_constrained_least_squares_batch", no_solve
        )
        monkeypatch.setattr("repro.core.model.decompose_features_batch", no_solve)
        for method, path, body in [
            ("GET", "/healthz", None),
            ("GET", "/summary", None),
            ("GET", "/stats", None),
            ("GET", f"/pattern/{tower}", None),
            ("GET", f"/decompose/{tower}", None),
            ("GET", f"/region/{tower}", None),
            ("POST", "/decompose", {"towers": server.tower_ids()}),
            ("POST", "/region", {"towers": server.tower_ids()}),
        ]:
            status, payload = dispatch(service, method, path, body)
            assert status == 200, (path, payload)
        assert len(server.decompose_all()) == len(server.tower_ids())
        server.decompose(tower)
        server.decompose_many([tower, tower])

    def test_model_without_representatives(self, scenario):
        model = TrafficPatternModel(ModelConfig(num_clusters=1))
        model.fit(scenario.traffic, city=scenario.city)
        assert model.result.representatives is None
        service = ModelService(server=ModelServer(model))
        tower = service.active.server.tower_ids()[0]
        assert dispatch(service, "GET", "/summary")[0] == 200
        assert dispatch(service, "GET", f"/pattern/{tower}")[0] == 200
        assert dispatch(service, "GET", f"/region/{tower}")[0] == 200
        status, payload = dispatch(service, "GET", f"/decompose/{tower}")
        assert status == 400 and "representative" in payload["error"]
        assert dispatch(service, "POST", "/decompose", {"towers": [tower]})[0] == 400
        assert dispatch(service, "GET", "/decompose/999999")[0] == 404
        with pytest.raises(RuntimeError, match="representative"):
            service.active.server.decompose_all()

    def test_model_without_labelling(self, scenario):
        model = TrafficPatternModel(ModelConfig(max_clusters=8))
        model.fit(scenario.traffic)
        service = ModelService(server=ModelServer(model))
        tower = service.active.server.tower_ids()[0]
        status, payload = dispatch(service, "GET", f"/region/{tower}")
        assert status == 400 and "labelling" in payload["error"]
        assert dispatch(service, "POST", "/region", {"towers": [tower]})[0] == 400
        assert dispatch(service, "GET", f"/pattern/{tower}")[0] == 200


class TestHTTPSurface:
    @pytest.fixture(scope="class")
    def live(self, bundle):
        with start_service(ModelService(bundle)) as handle:
            connection = http.client.HTTPConnection(
                handle.host, handle.port, timeout=30
            )
            yield handle, connection
            connection.close()

    def fetch(self, live, method, path, body=None):
        status, raw = request_raw(live[1], method, path, body)
        return status, json.loads(raw)

    def test_healthz(self, live):
        status, payload = self.fetch(live, "GET", "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["generation"] == 1
        assert len(payload["model_fingerprint"]) == 16

    def test_summary(self, live, fitted_model):
        status, payload = self.fetch(live, "GET", "/summary")
        assert status == 200
        assert payload["num_clusters"] == fitted_model.result.num_clusters
        assert payload["clusters"] == fitted_model.result.percentage_table()

    def test_single_tower_routes(self, live, fitted_model):
        tower = int(fitted_model.result.tower_ids[1])
        status, pattern = self.fetch(live, "GET", f"/pattern/{tower}")
        assert status == 200 and pattern["tower_id"] == tower
        status, row = self.fetch(live, "GET", f"/decompose/{tower}")
        assert status == 200 and row["tower_id"] == tower
        assert sum(row["coefficients"].values()) == pytest.approx(1.0)
        status, region = self.fetch(live, "GET", f"/region/{tower}")
        assert status == 200
        assert region["region"] == fitted_model.predict_region(tower).value

    def test_batch_post_routes(self, live, fitted_model):
        towers = [int(t) for t in fitted_model.result.tower_ids[:5]]
        status, payload = self.fetch(live, "POST", "/decompose", {"towers": towers})
        assert status == 200
        assert [row["tower_id"] for row in payload["decompositions"]] == towers
        status, payload = self.fetch(live, "POST", "/region", {"towers": towers})
        assert status == 200
        assert [row["tower_id"] for row in payload["regions"]] == towers

    def test_stats_schema(self, live):
        status, payload = self.fetch(live, "GET", "/stats")
        assert status == 200
        assert payload["service"]["generation"] == 1
        assert payload["service"]["requests"] >= 1
        assert payload["service"]["request_latency"]["count"] >= 1
        assert set(payload["server"]) == {"queries", "query_latency"}
        assert "service.request_seconds" in payload["metrics"]["histograms"]

    def test_error_mapping(self, live):
        assert self.fetch(live, "GET", "/decompose/999999")[0] == 404
        assert self.fetch(live, "GET", "/decompose/not-a-number")[0] == 400
        assert self.fetch(live, "GET", "/nope")[0] == 404
        assert self.fetch(live, "POST", "/decompose", {"towers": []})[0] == 400
        assert self.fetch(live, "POST", "/decompose", {"bogus": 1})[0] == 400
        assert self.fetch(live, "POST", "/reload", {"model": 5})[0] == 400
        assert self.fetch(live, "DELETE", "/healthz")[0] == 405
        _, connection = live
        connection.request(
            "POST", "/decompose", body=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        assert response.status == 400
        response.read()

    def test_bad_id_fails_only_its_own_request(self, live, fitted_model):
        tower = int(fitted_model.result.tower_ids[0])
        status, payload = self.fetch(
            live, "POST", "/decompose", {"towers": [tower, 999999]}
        )
        assert status == 404 and "999999" in payload["error"]
        assert self.fetch(live, "GET", f"/decompose/{tower}")[0] == 200

    def test_routing_ignores_the_query_string(self, live, fitted_model):
        tower = int(fitted_model.result.tower_ids[0])
        assert self.fetch(live, "GET", "/healthz?verbose=1")[0] == 200
        status, row = self.fetch(live, "GET", f"/decompose/{tower}?format=json")
        assert status == 200 and row["tower_id"] == tower
        assert self.fetch(live, "GET", f"/decompose/{tower}/extra")[0] == 404
        assert self.fetch(live, "GET", "/healthz/extra")[0] == 404
        assert self.fetch(live, "POST", "/summary")[0] == 404

    def test_keep_alive_and_connection_close(self, live):
        handle, _ = live
        keep = b"GET /healthz HTTP/1.1\r\n\r\n"
        close = b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n"
        replies = receive_all(handle, keep + keep + close)
        assert replies.count(b"HTTP/1.1 200 OK\r\n") == 3
        assert replies.count(b"Connection: keep-alive\r\n") == 2
        assert replies.count(b"Connection: close\r\n") == 1
        head, _ = exchange(handle, b"GET /healthz HTTP/1.0\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 ") and b"Connection: close" in head

    def test_stats_count_requests_and_errors(self, fitted_model):
        service = ModelService(server=ModelServer(fitted_model))
        tower = service.active.server.tower_ids()[0]
        for path in ("/healthz", f"/decompose/{tower}", "/decompose/999999", "/nope"):
            dispatch(service, "GET", path)
        stats = service.stats()
        assert stats["service"]["requests"] == 4
        assert stats["service"]["errors"] == 2
        assert stats["service"]["request_latency"]["count"] == 4
        assert stats["service"]["reloads"] == 0
        assert stats["server"]["queries"] == 1  # rejected ids never reach the server

    def test_internal_error_detail_stays_in_the_log(
        self, fitted_model, monkeypatch, caplog
    ):
        service = ModelService(server=ModelServer(fitted_model))

        def boom():
            raise RuntimeError("secret")

        monkeypatch.setattr(service, "summary", boom)
        with caplog.at_level(logging.ERROR, logger="repro.io.service"):
            status, payload = dispatch(service, "GET", "/summary")
        assert (status, payload) == (500, {"error": "internal server error"})
        assert "secret" in caplog.text
        assert service.stats()["service"]["errors"] == 1


class TestRequestReader:
    @pytest.fixture(scope="class")
    def handle(self, bundle):
        with start_service(ModelService(bundle)) as handle:
            yield handle

    def assert_one_line_400(self, head: bytes, body: bytes) -> None:
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in head
        assert body.count(b"\n") == 0
        assert "error" in json.loads(body)

    def test_negative_content_length(self, handle):
        head, body = exchange(
            handle, b"POST /decompose HTTP/1.1\r\nContent-Length: -5\r\n\r\n"
        )
        self.assert_one_line_400(head, body)
        assert b"Content-Length" in body

    def test_header_line_over_the_reader_limit(self, handle):
        head, body = exchange(
            handle, b"GET /healthz HTTP/1.1\r\nX-Big: " + b"a" * 70_000 + b"\r\n\r\n"
        )
        self.assert_one_line_400(head, body)

    def test_header_lines_are_capped(self, handle):
        def request(lines: int) -> bytes:
            headers = b"Connection: close\r\n" + b"".join(
                b"X-%d: v\r\n" % i for i in range(lines - 1)
            )
            return b"GET /healthz HTTP/1.1\r\n" + headers + b"\r\n"

        head, _ = exchange(handle, request(MAX_HEADER_LINES))
        assert head.startswith(b"HTTP/1.1 200 ")
        head, body = exchange(handle, request(MAX_HEADER_LINES + 1))
        self.assert_one_line_400(head, body)
        assert str(MAX_HEADER_LINES).encode() in body

    def test_non_numeric_content_length(self, handle):
        head, body = exchange(
            handle, b"POST /decompose HTTP/1.1\r\nContent-Length: ten\r\n\r\n"
        )
        self.assert_one_line_400(head, body)
        assert b"Content-Length" in body

    @pytest.mark.parametrize("value", [b"+5", b"5_0", b"0x5", b"9" * 5000])
    def test_content_length_is_ascii_digits_only(self, handle, value):
        head, body = exchange(
            handle,
            b"POST /decompose HTTP/1.1\r\nConnection: close\r\nContent-Length: "
            + value + b"\r\n\r\n{\"towers\": [0]}",
        )
        self.assert_one_line_400(head, body)
        assert b"Content-Length" in body

    def test_malformed_request_line(self, handle):
        head, body = exchange(handle, b"GARBAGE\r\n\r\n")
        self.assert_one_line_400(head, body)
        assert b"request line" in body

    def test_body_over_the_limit_is_refused_unread(self, handle):
        head, body = exchange(
            handle,
            b"POST /decompose HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % (MAX_BODY_BYTES + 1),
        )
        assert head.startswith(b"HTTP/1.1 413 ")
        assert b"Connection: close" in head
        assert "error" in json.loads(body)

    def test_truncated_body_gets_no_reply(self, handle):
        with socket.create_connection((handle.host, handle.port), timeout=30) as sock:
            sock.sendall(b'POST /decompose HTTP/1.1\r\nContent-Length: 100\r\n\r\n{"tow')
            sock.shutdown(socket.SHUT_WR)
            assert sock.recv(65536) == b""
        head, _ = exchange(handle, b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 ")


class TestHotSwap:
    def test_reload_swaps_generation_and_fingerprint(self, bundle, second_bundle):
        with start_service(ModelService(bundle)) as handle:
            connection = http.client.HTTPConnection(
                handle.host, handle.port, timeout=30
            )

            def post_reload(target):
                status, raw = request_raw(
                    connection, "POST", "/reload", {"model": str(target)}
                )
                return status, json.loads(raw)

            status, before = post_reload(second_bundle)
            assert status == 200
            assert before["generation"] == 2
            connection.request("GET", "/healthz")
            health = json.loads(connection.getresponse().read())
            assert health["generation"] == 2
            assert health["model_fingerprint"] == before["model_fingerprint"]
            assert health["model_path"] == str(second_bundle)

            # A failed reload reports 400 and keeps the current generation.
            status, payload = post_reload(second_bundle.parent / "missing")
            assert status == 400 and "error" in payload
            connection.request("GET", "/healthz")
            health = json.loads(connection.getresponse().read())
            assert health["generation"] == 2
            connection.close()

    def test_in_memory_service_cannot_reload(self, fitted_model):
        service = ModelService(server=ModelServer(fitted_model))
        with pytest.raises(ServiceError) as excinfo:
            asyncio.run(service.reload())
        assert excinfo.value.status == 400

    def test_requires_a_bundle_or_a_server(self):
        with pytest.raises(ValueError, match="model_path or server"):
            ModelService()

    def test_reload_without_path_rereads_the_active_bundle(self, bundle):
        service = ModelService(bundle)
        first = service.active
        status, payload = dispatch(service, "POST", "/reload")
        assert status == 200
        assert payload == {
            "status": "ok",
            "generation": 2,
            "model_fingerprint": first.server.fingerprint,
            "model_path": str(bundle),
        }
        assert service.active.server is not first.server
        assert service.stats()["service"]["reloads"] == 1

    def test_reload_serves_the_new_bundle(
        self, bundle, second_bundle, fitted_model, second_model
    ):
        service = ModelService(bundle)
        only_first = sorted(
            set(fitted_model.result.tower_ids.tolist())
            - set(second_model.result.tower_ids.tolist())
        )[0]
        assert dispatch(service, "GET", f"/decompose/{only_first}")[0] == 200
        status, _ = dispatch(service, "POST", "/reload", {"model": str(second_bundle)})
        assert status == 200
        status, summary = dispatch(service, "GET", "/summary")
        assert status == 200
        assert summary["num_towers"] == second_model.result.vectorized.num_towers
        assert summary["clusters"] == second_model.result.percentage_table()
        assert dispatch(service, "GET", f"/decompose/{only_first}")[0] == 404
        expected = ModelServer.from_artifact(second_bundle).decompose_all().as_rows()[0]
        status, row = dispatch(service, "GET", f"/decompose/{expected['tower_id']}")
        assert (status, row) == (200, expected)

    def test_sustained_load_survives_hot_swap(
        self, bundle, second_bundle, fitted_model, second_model
    ):
        """Zero dropped requests while the model is swapped A→B→A mid-stream."""
        shared = set(fitted_model.result.tower_ids.tolist()) & set(
            second_model.result.tower_ids.tolist()
        )
        towers = sorted(shared)[:10]
        paths = [f"/{kind}/{tower}" for kind in ("decompose", "region", "pattern")
                 for tower in towers]
        statuses: list[int] = []
        stop = threading.Event()

        with start_service(ModelService(bundle)) as handle:

            def client() -> None:
                connection = http.client.HTTPConnection(
                    handle.host, handle.port, timeout=30
                )
                try:
                    for path in itertools.cycle(paths):
                        if stop.is_set():
                            break
                        statuses.append(request_raw(connection, "GET", path)[0])
                except (OSError, http.client.HTTPException):
                    statuses.append(0)  # a transport failure: a dropped request
                finally:
                    connection.close()

            clients = [threading.Thread(target=client) for _ in range(3)]
            for thread in clients:
                thread.start()
            connection = http.client.HTTPConnection(handle.host, handle.port, timeout=30)
            generations = []
            try:
                for target in (second_bundle, bundle):
                    time.sleep(0.15)
                    status, raw = request_raw(
                        connection, "POST", "/reload", {"model": str(target)}
                    )
                    assert status == 200, raw
                    generations.append(json.loads(raw)["generation"])
                time.sleep(0.15)
                served_before_stop = len(statuses)
            finally:
                stop.set()
                for thread in clients:
                    thread.join(timeout=30)
                    assert not thread.is_alive()
            health = json.loads(request_raw(connection, "GET", "/healthz")[1])
            connection.close()

        assert generations == [2, 3]
        assert health["generation"] == 3
        assert health["model_path"] == str(bundle)
        assert served_before_stop > len(paths)
        assert set(statuses) == {200}


class TestModelServerThreadSafety:
    def test_concurrent_mixed_queries_are_consistent(self, fitted_model):
        """A built server is read-only, so threads can share it freely."""
        server = ModelServer(fitted_model)
        towers = server.tower_ids()[:8]
        reference = {t: server.decompose(t).coefficients for t in towers}
        errors = []

        def hammer():
            try:
                for tower in towers:
                    np.testing.assert_array_equal(
                        server.decompose(tower).coefficients, reference[tower]
                    )
                server.decompose_many(towers)
                server.stats()
            except Exception as err:  # pragma: no cover - failure reporting
                errors.append(err)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        assert errors == []


#: Modules that fit a model; serving a bundle must import none of them.
FIT_STACK = (
    "repro.core.model",
    "repro.core.pipeline",
    "repro.synth.scenario",
    "repro.cluster.hierarchical",
    "repro.ingest.loader",
    "repro.vectorize.aggregate",
    "repro.geo.poi_profile",
)

#: Runs `repro-traffic serve` up to its ready line, answers every route and a
#: reload in place of the socket loop, then prints the imported modules.
SERVE = """
import asyncio, json, sys
import repro.io.service as service

def run_service(svc, *, host, port, on_ready):
    on_ready(host, port)
    tower = svc.active.server.tower_ids()[0]
    requests = [("GET", path) for path in ("/healthz", "/summary", "/stats",
                f"/pattern/{tower}", f"/decompose/{tower}", f"/region/{tower}")]
    requests += [("POST", "/decompose"), ("POST", "/region"), ("POST", "/reload")]
    for method, path in requests:
        body = json.dumps({"towers": [tower]}).encode()
        status, payload = asyncio.run(svc.dispatch(method, path, body))
        assert status == 200, (path, payload)

service.run_service = run_service
from repro.cli import main
assert main(["serve", "--model", sys.argv[1], "--port", "0"]) == 0
print(json.dumps(sorted(sys.modules)))
"""


def test_serving_imports_no_fit_stack_module(fitted_model, tmp_path):
    bundle = fitted_model.save(tmp_path / "bundle")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    ))
    completed = subprocess.run(
        [sys.executable, "-c", SERVE, str(bundle)],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    ready, modules = completed.stdout.splitlines()[0], completed.stdout.splitlines()[-1]
    assert ready.startswith(f"serving model bundle {bundle} at http://")
    assert [name for name in FIT_STACK if name in json.loads(modules)] == []
