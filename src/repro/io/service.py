"""Networked serving plane: an HTTP/JSON front-end over the model.

The paper's workflow is fit-once / query-many; :class:`~repro.io.server.ModelServer`
answers those queries in-process from the few per-tower and per-cluster
arrays it builds once per model.  This module puts a network front-end on
it, stdlib ``asyncio`` only.  Every query is a row lookup, so it is answered
inline on the event loop, and a reply depends only on the model, never on
how requests were grouped.

**Atomic hot-swap**
    ``POST /reload`` builds a server for the new bundle off the event loop
    (on a worker thread; it reads the bundle's small arrays, never its
    towers × slots grids) and then swaps the active generation in one
    assignment.  During a swap the process holds two such small states, not
    two models.  Each query reads one generation from start to end; not a
    single request is dropped.

Endpoints (all JSON)::

    GET  /healthz               liveness + active model generation
    GET  /summary               Table-1 cluster summary
    GET  /pattern/<tower_id>    one tower's full pattern record
    GET  /decompose/<tower_id>  one tower's convex decomposition
    POST /decompose             {"towers": [...]} -> decompositions
    GET  /region/<tower_id>     one tower's predicted functional region
    POST /region                {"towers": [...]} -> regions
    GET  /stats                 serving counters + latency percentiles
    POST /reload                {"model": path?} -> atomic hot-swap

Serving statistics ride on the existing telemetry plane: the wrapped
:class:`ModelServer` keeps its ``server.*`` counters and query-latency
histogram, and the service adds ``service.*`` counters (requests, errors,
reloads) and a request-latency histogram on the same
:class:`~repro.obs.metrics.MetricsRegistry`.

Use :func:`start_service` to run the server on a background thread (tests,
embedding) or :func:`run_service` to serve forever (the
``repro-traffic serve`` CLI).
"""

from __future__ import annotations

import asyncio
import json
import logging
import re
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Sequence
from urllib.parse import urlsplit

from repro.io.persist import PersistError
from repro.io.server import ModelServer
from repro.obs.metrics import MetricsRegistry

#: Largest accepted request body, in bytes.
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Most header lines one request may carry (the ``http.server`` limit).
MAX_HEADER_LINES = 100

_HTTP_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
}

#: A tower id as a string: ASCII digits with an optional leading minus.
_TOWER_ID = re.compile(r"-?[0-9]+")

#: A ``Content-Length`` value: ASCII digits only.
_CONTENT_LENGTH = re.compile(r"[0-9]+")

_log = logging.getLogger(__name__)


class ServiceError(RuntimeError):
    """An operational serving failure carrying its HTTP status code."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = int(status)


def _parse_tower_id(raw: Any) -> int:
    """Read one requested tower id, or fail with a 400.

    A tower id is an integer (not a bool) or a string of ASCII digits with
    an optional leading ``-``, so ``1.7``, ``true``, ``"1_0"``, ``"+1"`` and
    non-ASCII digits are refused rather than read as some other tower.
    """
    if isinstance(raw, int) and not isinstance(raw, bool):
        return raw
    if isinstance(raw, str) and _TOWER_ID.fullmatch(raw):
        try:
            return int(raw)
        except ValueError:  # more digits than int() converts
            pass
    raise ServiceError(400, f"tower id {raw!r} is not an integer")


@dataclass(frozen=True)
class _ServingModel:
    """One immutable generation of the hot-swappable serving state."""

    server: ModelServer
    generation: int
    path: Path | None


class ModelService:
    """Transport-independent serving facade with hot-swap.

    Wraps one :class:`ModelServer` generation at a time.  Queries are plain
    methods that read the active generation once; :meth:`reload` is the only
    coroutine that waits on anything, and it swaps the generation only after
    the new bundle has loaded.

    Parameters
    ----------
    model_path:
        Bundle to serve (required for :meth:`reload` without an explicit
        path).  Either this or ``server`` must be given.
    server:
        A ready :class:`ModelServer` to serve (in-memory fits, tests).
    metrics:
        Shared registry; the service creates a private one when omitted.
    """

    def __init__(
        self,
        model_path: str | Path | None = None,
        *,
        server: ModelServer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if server is None and model_path is None:
            raise ValueError("either model_path or server is required")
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        path = None if model_path is None else Path(model_path)
        if server is None:
            server = ModelServer.from_artifact(path, metrics=self.metrics)
        self._active = _ServingModel(server, generation=1, path=path)
        self._requests = self.metrics.counter("service.requests")
        self._errors = self.metrics.counter("service.errors")
        self._reloads = self.metrics.counter("service.reloads")
        self._request_seconds = self.metrics.histogram("service.request_seconds")

    # -- serving state --------------------------------------------------

    @property
    def active(self) -> _ServingModel:
        """The current serving generation (capture once per request)."""
        return self._active

    @staticmethod
    def _require_towers(active: _ServingModel, tower_ids: Sequence[Any]) -> list[int]:
        """Validate and coerce the requested tower ids against one generation."""
        ids: list[int] = []
        for raw in tower_ids:
            tower_id = _parse_tower_id(raw)
            if not active.server.has_tower(tower_id):
                raise ServiceError(404, f"tower {tower_id} not found")
            ids.append(tower_id)
        if not ids:
            raise ServiceError(400, "no tower ids given")
        return ids

    # -- queries --------------------------------------------------------

    def healthz(self) -> dict:
        active = self._active
        return {
            "status": "ok",
            "generation": active.generation,
            "model_fingerprint": active.server.fingerprint,
            "model_path": None if active.path is None else str(active.path),
        }

    def summary(self) -> dict:
        server = self._active.server
        return {
            "num_clusters": server.num_clusters,
            "num_towers": server.num_towers,
            "num_days": server.num_days,
            "clusters": server.percentage_table(),
        }

    def pattern(self, tower_id: Any) -> dict:
        active = self._active
        (key,) = self._require_towers(active, [tower_id])
        return active.server.pattern_of(key).as_row()

    def decompose(self, tower_ids: Sequence[Any]) -> list[dict]:
        """Convex decompositions: rows of the generation's whole-city batch."""
        active = self._active
        ids = self._require_towers(active, tower_ids)
        try:
            batch = active.server.decompose_many(ids)
        except RuntimeError as err:  # the model has no primary components
            raise ServiceError(400, str(err)) from None
        return batch.as_rows()

    def region(self, tower_ids: Sequence[Any]) -> list[dict]:
        """Predicted functional regions."""
        active = self._active
        ids = self._require_towers(active, tower_ids)
        try:
            return [
                {"tower_id": key, "region": active.server.predict_region(key).value}
                for key in ids
            ]
        except RuntimeError as err:  # the model has no geographic labelling
            raise ServiceError(400, str(err)) from None

    def stats(self) -> dict:
        """One snapshot of every serving layer (stable top-level keys)."""
        active = self._active
        return {
            "service": {
                "generation": active.generation,
                "model_fingerprint": active.server.fingerprint,
                "model_path": None if active.path is None else str(active.path),
                "requests": self._requests.snapshot(),
                "errors": self._errors.snapshot(),
                "reloads": self._reloads.snapshot(),
                "request_latency": self._request_seconds.snapshot(),
            },
            "server": active.server.stats(),
            "metrics": self.metrics.snapshot(),
        }

    async def reload(self, path: str | Path | None = None) -> dict:
        """Atomically hot-swap to a (new) bundle; never drops a request.

        The bundle is read on a worker thread — the event loop keeps serving —
        and only then does the active reference swap (one assignment on the
        loop).  On a failed load the old model keeps serving and the error
        is reported to the caller only.
        """
        target = self._active.path if path is None else Path(path)
        if target is None:
            raise ServiceError(400, "no model path to reload from (serve started "
                                    "from an in-memory model)")
        try:
            server = await asyncio.to_thread(
                ModelServer.from_artifact, target, metrics=self.metrics
            )
        except PersistError as err:
            raise ServiceError(400, str(err)) from None
        swapped = _ServingModel(server, generation=self._active.generation + 1, path=target)
        self._active = swapped
        self._reloads.inc()
        return {
            "status": "ok",
            "generation": swapped.generation,
            "model_fingerprint": server.fingerprint,
            "model_path": str(target),
        }

    # -- HTTP dispatch --------------------------------------------------

    @staticmethod
    def _parse_body(body: bytes) -> dict:
        if not body:
            return {}
        try:
            parsed = json.loads(body)
        except json.JSONDecodeError as err:
            raise ServiceError(400, f"invalid JSON body: {err}") from None
        if not isinstance(parsed, dict):
            raise ServiceError(400, "JSON body must be an object")
        return parsed

    async def dispatch(self, method: str, target: str, body: bytes) -> tuple[int, dict]:
        """Route one HTTP request; returns ``(status, payload)``.

        Counts every request, times it into ``service.request_seconds`` and
        maps :class:`ServiceError` to its JSON error payload.  Anything else
        is logged and answered with a bare 500, so no internal detail
        reaches the client — the transport below never sees an exception.
        """
        self._requests.inc()
        start = time.perf_counter()
        try:
            status, payload = await self._route(method, target, body)
        except ServiceError as err:
            status, payload = err.status, {"error": str(err)}
        except Exception:  # noqa: BLE001 - last-resort serving guard
            _log.exception("unhandled error serving %s %s", method, target)
            status, payload = 500, {"error": "internal server error"}
        finally:
            self._request_seconds.observe(time.perf_counter() - start)
        if status >= 400:
            self._errors.inc()
        return status, payload

    async def _route(self, method: str, target: str, body: bytes) -> tuple[int, dict]:
        path = urlsplit(target).path
        parts = [part for part in path.split("/") if part]
        route = parts[0] if parts else ""
        arg = parts[1] if len(parts) > 1 else None
        if len(parts) > 2:
            raise ServiceError(404, f"unknown route {path!r}")

        if method == "GET":
            if route == "healthz" and arg is None:
                return 200, self.healthz()
            if route == "summary" and arg is None:
                return 200, self.summary()
            if route == "stats" and arg is None:
                return 200, self.stats()
            if route == "pattern" and arg is not None:
                return 200, self.pattern(arg)
            if route == "decompose" and arg is not None:
                return 200, self.decompose([arg])[0]
            if route == "region" and arg is not None:
                return 200, self.region([arg])[0]
        elif method == "POST":
            if route == "decompose" and arg is None:
                payload = self._parse_body(body)
                return 200, {"decompositions": self.decompose(self._towers_field(payload))}
            if route == "region" and arg is None:
                payload = self._parse_body(body)
                return 200, {"regions": self.region(self._towers_field(payload))}
            if route == "reload" and arg is None:
                model = self._parse_body(body).get("model")
                if model is not None and not isinstance(model, str):
                    raise ServiceError(400, '"model" must be a bundle path string')
                return 200, await self.reload(model)
        else:
            raise ServiceError(405, f"method {method} not allowed")
        raise ServiceError(404, f"unknown route {path!r}")

    @staticmethod
    def _towers_field(payload: dict) -> list:
        towers = payload.get("towers")
        if not isinstance(towers, list) or not towers:
            raise ServiceError(400, 'body must carry a non-empty "towers" list')
        return towers


# ----------------------------------------------------------------------
# HTTP transport (asyncio streams, HTTP/1.1 keep-alive)
# ----------------------------------------------------------------------


async def _read_line(reader: asyncio.StreamReader, what: str) -> bytes:
    """Read one CRLF line; a line over the reader's limit is a 400."""
    try:
        return await reader.readline()
    except ValueError:
        raise ServiceError(400, f"oversized {what}") from None


async def _read_request(
    reader: asyncio.StreamReader,
) -> tuple[str, str, str, dict[str, str], bytes] | None:
    """Parse one HTTP/1.1 request; ``None`` when the peer closed cleanly."""
    request_line = await _read_line(reader, "request line")
    if not request_line:
        return None
    try:
        method, target, version = request_line.decode("latin-1").split()
    except ValueError:
        raise ServiceError(400, "malformed request line") from None
    headers: dict[str, str] = {}
    for _ in range(MAX_HEADER_LINES + 1):
        line = await _read_line(reader, "header line")
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    else:
        raise ServiceError(400, f"more than {MAX_HEADER_LINES} header lines")
    length_field = headers.get("content-length", "0")
    try:
        length = int(length_field) if _CONTENT_LENGTH.fullmatch(length_field) else -1
    except ValueError:  # more digits than int() converts
        length = -1
    if length < 0:
        raise ServiceError(400, "bad Content-Length header")
    if length > MAX_BODY_BYTES:
        raise ServiceError(413, f"request body over {MAX_BODY_BYTES} bytes")
    body = await reader.readexactly(length) if length else b""
    return method.upper(), target, version, headers, body


def _render_response(status: int, payload: dict, *, keep_alive: bool) -> bytes:
    body = json.dumps(payload).encode("utf-8")
    reason = _HTTP_REASONS.get(status, "Error")
    connection = "keep-alive" if keep_alive else "close"
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {connection}\r\n\r\n"
    )
    return head.encode("latin-1") + body


async def _handle_connection(
    service: ModelService,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    try:
        while True:
            try:
                request = await _read_request(reader)
            except ServiceError as err:
                writer.write(
                    _render_response(err.status, {"error": str(err)}, keep_alive=False)
                )
                await writer.drain()
                break
            except (asyncio.IncompleteReadError, ConnectionError):
                break
            if request is None:
                break
            method, target, version, headers, body = request
            status, payload = await service.dispatch(method, target, body)
            wants_close = headers.get("connection", "").lower() == "close"
            keep_alive = version == "HTTP/1.1" and not wants_close
            writer.write(_render_response(status, payload, keep_alive=keep_alive))
            await writer.drain()
            if not keep_alive:
                break
    except (ConnectionError, asyncio.CancelledError):
        pass
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover - peer reset
            pass


# ----------------------------------------------------------------------
# Runners
# ----------------------------------------------------------------------


class ServiceHandle:
    """A service listening on a background thread's event loop.

    Returned by :func:`start_service`; use as a context manager (or call
    :meth:`stop`) so the loop and sockets are released.
    """

    def __init__(self, service: ModelService, host: str, port: int) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def stop(self) -> None:
        """Stop serving and join the background thread (idempotent)."""
        loop, self._loop = self._loop, None
        if loop is not None:
            loop.call_soon_threadsafe(loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None

    def __enter__(self) -> "ServiceHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def start_service(
    service: ModelService, *, host: str = "127.0.0.1", port: int = 0
) -> ServiceHandle:
    """Serve ``service`` on a daemon thread; returns once it accepts connections.

    ``port=0`` binds an ephemeral port (the handle reports the real one) —
    the pattern tests use to avoid collisions.
    """
    handle = ServiceHandle(service, host, port)
    ready = threading.Event()
    startup_error: list[BaseException] = []

    def runner() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        try:
            server = loop.run_until_complete(
                asyncio.start_server(
                    lambda r, w: _handle_connection(service, r, w), host, port
                )
            )
        except OSError as err:
            startup_error.append(err)
            ready.set()
            loop.close()
            return
        handle.port = server.sockets[0].getsockname()[1]
        handle._loop = loop
        ready.set()
        try:
            loop.run_forever()
        finally:
            server.close()
            loop.run_until_complete(server.wait_closed())
            # Cancel and drain still-open keep-alive connections so the
            # loop closes cleanly instead of destroying pending tasks.
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.run_until_complete(loop.shutdown_default_executor())
            loop.close()

    thread = threading.Thread(target=runner, name="repro-serve-loop", daemon=True)
    handle._thread = thread
    thread.start()
    ready.wait()
    if startup_error:
        raise ServiceError(500, f"cannot bind {host}:{port}: {startup_error[0]}")
    return handle


def run_service(
    service: ModelService,
    *,
    host: str = "127.0.0.1",
    port: int = 8350,
    on_ready: Callable[[str, int], None] | None = None,
) -> None:
    """Serve forever on the calling thread (the CLI path); Ctrl-C returns."""

    async def main() -> None:
        server = await asyncio.start_server(
            lambda r, w: _handle_connection(service, r, w), host, port
        )
        bound_port = server.sockets[0].getsockname()[1]
        if on_ready is not None:
            on_ready(host, bound_port)
        async with server:
            await server.serve_forever()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass
