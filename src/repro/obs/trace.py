"""Hierarchical span tracing with injectable clocks.

A :class:`Tracer` records a tree of :class:`Span` objects.  Each span is a
context manager measuring wall time (``clock``, default
:func:`time.perf_counter`), process CPU time (``cpu_clock``, default
:func:`time.process_time`) and — when ``trace_memory=True`` — the
:mod:`tracemalloc` allocation peak attributed to the span.  Spans nest: the
tracer keeps a stack, so ``with tracer.span("fit")`` inside
``with tracer.span("run")`` records ``fit`` as a child of ``run``.  Spans
carry free-form ``attributes`` (set once, describe the work) and integer
``counters`` (accumulate, count the work).

Both clocks are injectable, so tests can drive the tracer with a scripted
fake clock and assert exact durations — no sleeping, no tolerance bands.

The no-op twin
--------------
:data:`NULL_TRACER` is a :class:`NullTracer` singleton whose ``span()``
returns a shared, stateless no-op span.  Every instrumented code path takes
a tracer argument defaulting to it, which keeps the disabled-mode overhead
at one attribute call per span site and guarantees untraced runs execute
the exact same numerical code as before instrumentation.

Export schema (``Tracer.to_dict()``)
------------------------------------
::

    {
      "schema": "repro-trace",            # TRACE_SCHEMA
      "schema_version": 1,                # TRACE_SCHEMA_VERSION
      "package_version": "1.0.0",
      "spans": [<span>, ...]              # root spans, in creation order
    }

where each ``<span>`` is::

    {
      "name": "fit",
      "start_s": 0.0,                     # offset from tracer creation
      "wall_s": 1.25,                     # wall-clock duration
      "cpu_s": 1.19,                      # process CPU duration
      "status": "ok" | "error",
      "error": "ValueError: ...",         # only when status == "error"
      "mem_peak_bytes": 1048576,          # only when memory tracing was on
      "attributes": {"towers": 300},      # free-form, JSON-safe
      "counters": {"records": 1000000},   # accumulated integers
      "children": [<span>, ...]
    }
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping

#: Name of the trace export format, recorded in every export.
TRACE_SCHEMA = "repro-trace"

#: Version of the span schema documented in the module docstring.
TRACE_SCHEMA_VERSION = 1


class Span:
    """One node of a trace: a named, timed unit of work.

    Spans are created by :meth:`Tracer.span`, not directly.
    """

    __slots__ = (
        "name",
        "start_s",
        "wall_seconds",
        "cpu_seconds",
        "mem_peak_bytes",
        "status",
        "error",
        "attributes",
        "counters",
        "children",
        "_cpu_start",
        "_mem_start",
        "_mem_peak",
    )

    def __init__(self, name: str, attributes: Mapping[str, Any] | None = None) -> None:
        self.name = str(name)
        self.start_s = 0.0
        self.wall_seconds = 0.0
        self.cpu_seconds = 0.0
        self.mem_peak_bytes: int | None = None
        self.status = "ok"
        self.error: str | None = None
        self.attributes: dict[str, Any] = dict(attributes or {})
        self.counters: dict[str, int] = {}
        self.children: list[Span] = []
        self._cpu_start = 0.0
        self._mem_start = 0
        self._mem_peak = 0

    # -- recording ------------------------------------------------------

    def set(self, key: str, value: Any) -> None:
        """Record a free-form attribute (last write wins)."""
        self.attributes[str(key)] = value

    def count(self, name: str, amount: int = 1) -> None:
        """Accumulate an integer counter on this span."""
        key = str(name)
        self.counters[key] = self.counters.get(key, 0) + int(amount)

    # -- introspection --------------------------------------------------

    def find(self, name: str) -> "Span | None":
        """Return the first span named ``name`` in this subtree (DFS)."""
        if self.name == name:
            return self
        for child in self.children:
            found = child.find(name)
            if found is not None:
                return found
        return None

    def walk(self) -> Iterator["Span"]:
        """Yield this span and every descendant, depth first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> dict[str, Any]:
        """Return the JSON-safe dict form documented in the module schema."""
        data: dict[str, Any] = {
            "name": self.name,
            "start_s": float(self.start_s),
            "wall_s": float(self.wall_seconds),
            "cpu_s": float(self.cpu_seconds),
            "status": self.status,
            "attributes": dict(self.attributes),
            "counters": dict(self.counters),
            "children": [child.to_dict() for child in self.children],
        }
        if self.error is not None:
            data["error"] = self.error
        if self.mem_peak_bytes is not None:
            data["mem_peak_bytes"] = int(self.mem_peak_bytes)
        return data

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, wall={self.wall_seconds:.6f}s, "
            f"children={len(self.children)})"
        )


class _ActiveSpan:
    """Context manager measuring one :class:`Span` on a tracer's stack."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._tracer._enter(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc is not None:
            self._span.status = "error"
            self._span.error = f"{exc_type.__name__}: {exc}"
        self._tracer._exit(self._span)
        return False  # never swallow the exception


class Tracer:
    """Build a span tree by entering/exiting nested context managers.

    Parameters
    ----------
    clock:
        Monotonic wall clock in seconds (default
        :func:`time.perf_counter`).  Injectable for deterministic tests.
    cpu_clock:
        Process CPU clock in seconds (default :func:`time.process_time`).
    trace_memory:
        When true, :mod:`tracemalloc` runs for the duration of the trace
        and every span records the allocation peak observed while it was
        open (``mem_peak_bytes``).  Tracemalloc itself costs 2-4x on
        allocation-heavy code — reserve this for memory investigations,
        not for the <2%-overhead always-on tracing mode.
    """

    enabled = True

    def __init__(
        self,
        *,
        clock: Callable[[], float] | None = None,
        cpu_clock: Callable[[], float] | None = None,
        trace_memory: bool = False,
    ) -> None:
        self._clock = clock if clock is not None else time.perf_counter
        self._cpu_clock = cpu_clock if cpu_clock is not None else time.process_time
        self.trace_memory = bool(trace_memory)
        self.roots: list[Span] = []
        self._stack: list[Span] = []
        self._epoch = self._clock()
        self._started_tracemalloc = False

    # -- span lifecycle -------------------------------------------------

    @property
    def current(self) -> Span | None:
        """The innermost open span (None outside any ``with`` block)."""
        return self._stack[-1] if self._stack else None

    def span(self, name: str, **attributes: Any) -> _ActiveSpan:
        """Return a context manager recording ``name`` under the open span."""
        return _ActiveSpan(self, Span(name, attributes))

    def _enter(self, span: Span) -> None:
        parent = self.current
        if parent is not None:
            parent.children.append(span)
        else:
            self.roots.append(span)
        if self.trace_memory:
            # Close the previous fragment before this span joins the stack,
            # so pre-span allocations are never attributed to it.
            span._mem_start = self._memory_boundary()
            span._mem_peak = span._mem_start
        self._stack.append(span)
        span._cpu_start = self._cpu_clock()
        span.start_s = self._clock() - self._epoch

    def _exit(self, span: Span) -> None:
        span.wall_seconds = (self._clock() - self._epoch) - span.start_s
        span.cpu_seconds = self._cpu_clock() - span._cpu_start
        if self.trace_memory:
            self._memory_boundary()
            span.mem_peak_bytes = max(0, span._mem_peak - span._mem_start)
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        else:  # pragma: no cover - defensive: mismatched enter/exit
            try:
                self._stack.remove(span)
            except ValueError:
                pass
        if self.trace_memory and not self._stack and self._started_tracemalloc:
            import tracemalloc

            tracemalloc.stop()
            self._started_tracemalloc = False

    def _memory_boundary(self) -> int:
        """Sample tracemalloc, fold the peak into every open span, reset it.

        Peaks are tracked in fragments between consecutive span boundaries
        (enter/exit events); each fragment's peak is attributed to every
        span open during it, so a parent's peak always covers its
        children's.  Returns the current traced size.
        """
        import tracemalloc

        if not tracemalloc.is_tracing():
            tracemalloc.start()
            self._started_tracemalloc = True
            return 0
        current, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        for open_span in self._stack:
            if peak > open_span._mem_peak:
                open_span._mem_peak = peak
        return current

    # -- introspection / export ----------------------------------------

    def find(self, name: str) -> Span | None:
        """Return the first span named ``name`` across all roots (DFS)."""
        for root in self.roots:
            found = root.find(name)
            if found is not None:
                return found
        return None

    def to_dict(self) -> dict[str, Any]:
        """Return the whole trace in the documented JSON schema."""
        from repro import __version__

        return {
            "schema": TRACE_SCHEMA,
            "schema_version": TRACE_SCHEMA_VERSION,
            "package_version": __version__,
            "spans": [root.to_dict() for root in self.roots],
        }

    def to_json(self, *, indent: int | None = 2) -> str:
        """Return :meth:`to_dict` serialised as JSON text."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    def write_json(self, path: str | Path) -> Path:
        """Write :meth:`to_json` to ``path`` and return it."""
        target = Path(path)
        target.write_text(self.to_json() + "\n")
        return target


class _NullSpan:
    """Stateless stand-in for :class:`Span`: every operation is a no-op."""

    __slots__ = ()

    name = ""
    wall_seconds = 0.0
    cpu_seconds = 0.0
    mem_peak_bytes = None
    status = "ok"
    error = None
    attributes: dict[str, Any] = {}
    counters: dict[str, int] = {}
    children: list = []

    def set(self, key: str, value: Any) -> None:
        return None

    def count(self, name: str, amount: int = 1) -> None:
        return None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


#: The shared no-op span returned by the null tracer.
NULL_SPAN = _NullSpan()


class NullTracer:
    """Do-nothing :class:`Tracer` twin used when tracing is disabled.

    Shares the tracer's duck interface (``span``/``current``/``find``/
    ``to_dict``) but records nothing and allocates nothing per
    call, so instrumented code needs no ``if tracer is not None`` guards.
    """

    enabled = False
    trace_memory = False
    roots: list[Span] = []

    def span(self, name: str, **attributes: Any) -> _NullSpan:
        return NULL_SPAN

    @property
    def current(self) -> _NullSpan:
        return NULL_SPAN

    def find(self, name: str) -> None:
        return None

    def to_dict(self) -> dict[str, Any]:
        from repro import __version__

        return {
            "schema": TRACE_SCHEMA,
            "schema_version": TRACE_SCHEMA_VERSION,
            "package_version": __version__,
            "spans": [],
        }


#: Module-level no-op tracer: the default everywhere a tracer is accepted.
NULL_TRACER = NullTracer()
