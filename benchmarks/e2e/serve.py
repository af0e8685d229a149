"""Serving half of a lifecycle run.

The program's ``serve`` CLI runs in a process of its own; the benchmark
drives it with its own closed-loop keep-alive HTTP client (frozen here, so a
change to the program's load generator cannot move the instrument) and
checks every response against the bundles it was served from.
"""

from __future__ import annotations

import gc
import http.client
import itertools
import json
import queue
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.io.server import ModelServer

from benchmarks.e2e import ROOT, child_env
from benchmarks.e2e.hostspeed import HostSpeed

#: Query kinds every workload sends, one GET route each.
KINDS = ("decompose", "region", "pattern")

#: Seconds a server gets to print its ready line, and to exit on SIGINT.
READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 10.0

_READY = re.compile(r"serving model bundle .* at http://(?P<host>[^:\s]+):(?P<port>\d+)")


class ServeError(RuntimeError):
    """The server process failed to start or to answer."""


class ServerProcess:
    """``python -m repro.cli serve --model BUNDLE --port 0`` in its own process.

    ``ready_s`` is the time from spawn until the CLI printed its ready line:
    interpreter start, imports, bundle load and socket bind.
    """

    def __init__(self, bundle: Path, log_path: Path) -> None:
        self._log = log_path.open("wb")
        self._lines: queue.Queue[str | None] = queue.Queue()
        start = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--model", str(bundle),
             "--port", "0"],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=self._log,
        )
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()
        try:
            self.host, self.port = self._await_ready(log_path)
        except BaseException:
            self.stop()
            raise
        self.ready_s = time.perf_counter() - start

    def _pump(self) -> None:
        for raw in self.process.stdout:
            self._lines.put(raw.decode("utf-8", "replace"))
        self._lines.put(None)

    def _await_ready(self, log_path: Path) -> tuple[str, int]:
        deadline = time.monotonic() + READY_TIMEOUT_S
        while True:
            try:
                line = self._lines.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                raise ServeError(f"server not ready after {READY_TIMEOUT_S:.0f} s") from None
            if line is None:
                raise ServeError(f"server exited before serving; see {log_path}")
            match = _READY.search(line)
            if match:
                return match["host"], int(match["port"])

    def peak_rss_mb(self) -> float:
        """The server's ``VmHWM`` (peak resident set) in MiB."""
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise ServeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        """SIGINT (the CLI's clean shutdown), then kill; always reaps."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._reader.join(timeout=STOP_TIMEOUT_S)
        self.process.stdout.close()
        self._log.close()


class Connection:
    """One keep-alive HTTP/1.1 connection; transport errors reconnect."""

    def __init__(self, host: str, port: int) -> None:
        self._conn = http.client.HTTPConnection(host, port, timeout=30)

    def request(self, method: str, path: str, payload: dict | None = None) -> tuple[int, bytes]:
        """Return ``(status, body)``; status 0 means the transport failed."""
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        try:
            self._conn.request(method, path, body=body)
            response = self._conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self._conn.close()
            return 0, b""

    def close(self) -> None:
        self._conn.close()


@dataclass
class Sample:
    kind: str
    tower: int
    status: int
    body: bytes
    latency_s: float


@dataclass
class LoadResult:
    samples: list[Sample]
    reload_s: list[float]
    reload_failures: list[str]
    #: Seconds spent sending requests and reloads (reference loops excluded).
    wall_s: float
    references_s: list[float]


@dataclass
class Plan:
    """Requests, and reloads with nothing or something in flight.

    ``steps`` are ``(kind, tower)`` GETs, or a bundle the client reloads to
    between two of its requests.  The first ``min_steps`` are always taken;
    after them the client stops once the time budget is spent or the steps
    run out (``repeat`` cycles them).  ``hot_swaps`` are ``(share of the
    budget, bundle)``: a second thread reloads to the bundle at that point
    while the client keeps reading, and the client does not stop before
    every hot swap is done.
    """

    steps: list[tuple[str, int] | Path]
    min_steps: int
    repeat: bool
    hot_swaps: list[tuple[float, Path]]

    @property
    def reloads(self) -> int:
        return sum(isinstance(step, Path) for step in self.steps) + len(self.hot_swaps)


def request_plan(
    tower_ids: Sequence[int], queries: str, query_towers: int, seed: int,
    bundle_a: Path, bundle_b: Path,
) -> Plan:
    """The seeded request plan of a workload.

    ``distinct``: every (kind, tower) pair of ``query_towers`` sampled towers
    in a shuffled pass on bundle A (always completed), a reload to B, and a
    second shuffled pass while the budget lasts — no request repeats within
    a bundle generation, so the result cache cannot hit.  ``hot``:
    ``query_towers`` towers × kinds cycled, reloading to B at one third of
    the budget and back to A at two thirds.
    """
    rng = np.random.default_rng(seed)
    towers = rng.choice(np.asarray(tower_ids), size=query_towers, replace=False)
    keys = [(kind, int(tower)) for kind in KINDS for tower in towers]
    if queries == "distinct":
        first, second = ([keys[i] for i in rng.permutation(len(keys))] for _ in range(2))
        return Plan([*first, bundle_b, *second], len(first) + 1, repeat=False, hot_swaps=[])
    order = [keys[i] for i in rng.permutation(len(keys))]
    return Plan(order, len(order), repeat=True,
                hot_swaps=[(1.0 / 3.0, bundle_b), (2.0 / 3.0, bundle_a)])


def _reload(connection: Connection, bundle: Path) -> tuple[float, str | None]:
    """POST ``/reload``; returns the client-side seconds and any failure."""
    start = time.perf_counter()
    status, body = connection.request("POST", "/reload", {"model": str(bundle)})
    elapsed = time.perf_counter() - start
    return elapsed, None if status == 200 else f"reload to {bundle}: HTTP {status} {body!r}"


#: Seconds of closed-loop requests between two timings of the reference loop.
BLOCK_S = 0.5

#: Reference loops timed before the first block and after every block.
BLOCK_REFERENCE_REPEATS = 2


def run_plan(host: str, port: int, plan: Plan, budget_s: float, speed: HostSpeed) -> LoadResult:
    """Send ``plan`` from one closed-loop keep-alive client for ``budget_s``.

    The client sends a request, waits for its reply, then sends the next:
    the callers (dashboards, analysts) wait for each answer.  One client
    and one reload thread keep the load within the two cores the benchmark
    is sized for.  Every ``BLOCK_S`` the client times the host-speed
    reference loop while the server is idle; a lock keeps the loop and the
    hot swaps apart, so a reload's work in the server never slows it down.
    """
    result = LoadResult([], [], [], 0.0, [])
    quiet = threading.Lock()
    stop, swapped = threading.Event(), threading.Event()
    errors: list[BaseException] = []

    def record_reload(connection: Connection, bundle: Path) -> None:
        with quiet:
            elapsed, failure = _reload(connection, bundle)
            result.reload_s.append(elapsed)
            result.reload_failures.extend([failure] if failure else [])

    def swapper() -> None:
        connection = Connection(host, port)
        try:
            for share, bundle in plan.hot_swaps:
                if stop.wait(max(0.0, start + share * budget_s - time.perf_counter())):
                    return
                record_reload(connection, bundle)
        except BaseException as error:  # re-raised in the caller's thread
            errors.append(error)
        finally:
            connection.close()
            swapped.set()

    def reference() -> None:
        with quiet:
            result.references_s.extend(speed.sample(BLOCK_REFERENCE_REPEATS))

    connection = Connection(host, port)
    thread = threading.Thread(target=swapper)
    steps = itertools.cycle(plan.steps) if plan.repeat else iter(plan.steps)
    # The client's own collector pauses would show as server latency.
    gc.disable()
    try:
        reference()
        start = time.perf_counter()
        thread.start()
        block_end = start + BLOCK_S
        for taken, step in enumerate(steps):
            now = time.perf_counter()
            if taken >= plan.min_steps and now >= start + budget_s and swapped.is_set():
                break
            if now >= block_end:
                reference()
                block_end = time.perf_counter() + BLOCK_S
            if isinstance(step, Path):
                record_reload(connection, step)
                continue
            kind, tower = step
            sent = time.perf_counter()
            status, body = connection.request("GET", f"/{kind}/{tower}")
            result.samples.append(Sample(kind, tower, status, body,
                                         time.perf_counter() - sent))
        reference()
        result.wall_s = sum(s.latency_s for s in result.samples) + sum(result.reload_s)
    finally:
        stop.set()
        if thread.is_alive():
            thread.join()
        connection.close()
        gc.enable()
    if errors:
        raise errors[0]
    return result


def fetch_json(host: str, port: int, path: str) -> dict:
    connection = Connection(host, port)
    try:
        status, body = connection.request("GET", path)
    finally:
        connection.close()
    if status != 200:
        raise ServeError(f"GET {path}: HTTP {status}")
    return json.loads(body)


#: Tolerance of a decompose reply: coefficients lie on the simplex and the
#: reconstructed point and residual match the reference to 1e-9.  Features
#: are max-normalised, so an absolute tolerance is meaningful.
DECOMPOSE_TOLERANCE = 1e-9


@dataclass(frozen=True)
class _Decomposition:
    row: dict
    projection: np.ndarray
    vertices: np.ndarray


class Expected:
    """Reference answers from the bundles the server may have answered from.

    A decompose reply is checked against ``ModelServer.decompose_many([id])``
    by what is unique about it: its coefficients must be a point of the
    simplex whose image ``coefficients @ vertices`` is the reference
    projection, with the reference residual.  (The server coalesces ids
    into larger batches; coefficients themselves are not unique once there
    are more primary components than feature dimensions plus one, and an
    ill-conditioned face moves them by more than 1e-9 relative.)  Region
    and pattern replies must equal ``predict_region``/``pattern_of``.
    """

    def __init__(self, bundles: Sequence[Path]) -> None:
        self.servers = [ModelServer.from_artifact(path) for path in bundles]
        self._answers: dict[tuple[int, str, int], object] = {}

    def _answer(self, index: int, kind: str, tower: int):
        key = (index, kind, tower)
        if key not in self._answers:
            server = self.servers[index]
            if kind == "decompose":
                batch = server.decompose_many([tower])
                answer = _Decomposition(batch.as_rows()[0], batch.projections[0],
                                        server.result.representatives.features)
            elif kind == "region":
                answer = {"tower_id": tower, "region": server.predict_region(tower).value}
            else:
                answer = json.loads(json.dumps(server.pattern_of(tower).as_row()))
            self._answers[key] = answer
        return self._answers[key]

    def matches(self, kind: str, tower: int, payload: dict) -> bool:
        return any(
            _equal(kind, payload, self._answer(index, kind, tower))
            for index in range(len(self.servers))
        )


def _equal(kind: str, payload: dict, expected) -> bool:
    if kind != "decompose":
        return payload == expected
    coefficients = payload.get("coefficients")
    want = expected.row
    if (
        payload.get("tower_id") != want["tower_id"]
        or not isinstance(coefficients, dict)
        or coefficients.keys() != want["coefficients"].keys()
    ):
        return False
    try:
        got = np.array([coefficients[label] for label in want["coefficients"]], dtype=float)
        residual = float(payload["residual"])
    except (KeyError, TypeError, ValueError):
        return False
    tol = DECOMPOSE_TOLERANCE
    return bool(
        got.min() >= -tol
        and abs(got.sum() - 1.0) <= tol
        and abs(residual - want["residual"]) <= tol
        and np.allclose(got @ expected.vertices, expected.projection, rtol=tol, atol=tol)
    )


def response_failures(samples: Sequence[Sample], expected: Expected) -> list[str]:
    """One line per reply that failed or matches no bundle's answer."""
    failures = []
    for sample in samples:
        if sample.status != 200:
            failures.append(f"GET /{sample.kind}/{sample.tower}: HTTP {sample.status}")
            continue
        try:
            payload = json.loads(sample.body)
        except ValueError:
            payload = None
        if not isinstance(payload, dict) or not expected.matches(
            sample.kind, sample.tower, payload
        ):
            failures.append(
                f"GET /{sample.kind}/{sample.tower}: reply matches neither bundle"
            )
    return failures
