"""Unified telemetry plane: hierarchical span tracing + a metrics registry.

Every performance-critical plane of the reproduction — the staged fit
pipeline, the streamed ingest, the clustering backends, the
batched simplex decomposition and the serving layer — reports into the two
primitives of this package:

* :class:`~repro.obs.trace.Tracer` — a context-manager span tracer
  recording wall time, process CPU time, optional tracemalloc peaks and
  free-form attributes/counters as a tree of nested
  :class:`~repro.obs.trace.Span` objects, exportable as JSON
  (:meth:`~repro.obs.trace.Tracer.to_dict`) or as a rendered tree
  (:func:`repro.viz.ascii.render_trace_tree`);
* :class:`~repro.obs.metrics.MetricsRegistry` — named counters, gauges and
  fixed-bucket histograms (p50/p95/p99) for cumulative statistics: queries
  and request latency served, chunks and records ingested.

Tracing is **off by default** everywhere: the no-op
:data:`~repro.obs.trace.NULL_TRACER` singleton stands in when no tracer is
supplied, so the untraced hot paths run the exact same code (and produce
bit-for-bit the same results) as before this plane existed.
"""

from __future__ import annotations

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.trace import (
    NULL_TRACER,
    TRACE_SCHEMA,
    TRACE_SCHEMA_VERSION,
    NullTracer,
    Span,
    Tracer,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "TRACE_SCHEMA",
    "TRACE_SCHEMA_VERSION",
    "Tracer",
]
