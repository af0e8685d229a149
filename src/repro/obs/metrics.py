"""Metrics registry: named counters, gauges and fixed-bucket histograms.

The cumulative, process-lifetime counterpart of the span tracer
(:mod:`repro.obs.trace`): a span measures *one* execution, a metric
aggregates *every* execution.  Three instrument kinds cover the repo's
needs:

* :class:`Counter` — monotonically increasing integer (queries served,
  cache hits, records ingested);
* :class:`Gauge` — last-written value (resident batch rows, queue depth at
  a point in time);
* :class:`Histogram` — fixed-bucket distribution with exact
  ``count``/``sum``/``min``/``max`` and interpolated ``p50``/``p95``/
  ``p99`` quantiles (query latency).

Instruments are created lazily and get-or-create by name through a
:class:`MetricsRegistry`; :meth:`MetricsRegistry.snapshot` returns the
whole registry as one JSON-safe dict with a stable shape.

Histogram quantile semantics
----------------------------
Buckets are **right-closed**: an observation ``v`` lands in the first
bucket whose upper bound satisfies ``v <= bound``; anything above the last
bound lands in the overflow bucket.  ``quantile(q)`` finds the bucket
containing the ``q·count``-th observation and interpolates linearly inside
it, using the observed ``min``/``max`` to bound the first and overflow
buckets; the result is always clamped into ``[min, max]``.  An observation
sitting exactly on a bucket boundary is counted in the bucket it bounds,
so ``quantile`` is exact whenever the rank falls on a boundary.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from typing import Any, Iterable

#: Default histogram bucket upper bounds for latencies in seconds:
#: 10^(k/10) for k = -60 … 15, i.e. 1 µs … 31.6 s with ten log-spaced bounds
#: per decade (each 10^0.1 ≈ 1.26× the one below).  An interpolated
#: quantile lies in the bucket of the exact one, so inside that range it is
#: within 26% of it; a served query takes tens of µs, far above the floor.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = tuple(10.0 ** (k / 10) for k in range(-60, 16))


class Counter:
    """A monotonically increasing integer metric.

    Safe to ``inc`` concurrently from several threads (the serving plane's
    thread pool shares one registry across all request handlers).
    """

    __slots__ = ("name", "value", "_lock")

    kind = "counter"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        amount = int(amount)
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (got {amount})")
        with self._lock:
            self.value += amount

    def snapshot(self) -> int:
        return int(self.value)


class Gauge:
    """A metric holding the last value written to it."""

    __slots__ = ("name", "value")

    kind = "gauge"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def snapshot(self) -> float:
        return float(self.value)


class Histogram:
    """Fixed-bucket histogram with interpolated quantiles.

    Parameters
    ----------
    name:
        Registry name of the instrument.
    buckets:
        Strictly increasing upper bounds of the buckets; observations above
        the last bound land in an implicit overflow bucket.
    """

    __slots__ = (
        "name",
        "bounds",
        "bucket_counts",
        "count",
        "total",
        "low",
        "high",
        "_lock",
    )

    kind = "histogram"

    def __init__(
        self, name: str, buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS
    ) -> None:
        self.name = name
        bounds = [float(bound) for bound in buckets]
        if not bounds:
            raise ValueError(f"histogram {name!r} needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(
                f"histogram {name!r} bucket bounds must be strictly increasing"
            )
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)  # +1 = overflow
        self.count = 0
        self.total = 0.0
        self.low = math.inf
        self.high = -math.inf
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation (thread-safe)."""
        value = float(value)
        bucket = bisect_left(self.bounds, value)
        # Right-closed buckets: the first bound >= value owns it.  The
        # count/sum/min/max quartet must stay mutually consistent under the
        # serving plane's concurrent observers, hence the lock.
        with self._lock:
            self.bucket_counts[bucket] += 1
            self.count += 1
            self.total += value
            if value < self.low:
                self.low = value
            if value > self.high:
                self.high = value

    def quantile(self, q: float) -> float:
        """Return the interpolated ``q``-quantile (``0 <= q <= 1``).

        NaN when the histogram is empty.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be within [0, 1], got {q}")
        if self.count == 0:
            return math.nan
        rank = q * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.bucket_counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= rank:
                lower = self.bounds[index - 1] if index > 0 else self.low
                upper = (
                    self.bounds[index] if index < len(self.bounds) else self.high
                )
                lower = max(lower, self.low)
                upper = min(upper, self.high)
                if upper <= lower:
                    return float(lower)
                fraction = (rank - cumulative) / bucket_count
                return float(
                    min(max(lower + fraction * (upper - lower), self.low), self.high)
                )
            cumulative += bucket_count
        return float(self.high)  # pragma: no cover - rank <= count always hits

    def percentiles(self) -> dict[str, float]:
        """Return the standard ``{"p50", "p95", "p99"}`` summary."""
        return {
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }

    def snapshot(self) -> dict[str, Any]:
        empty = self.count == 0
        return {
            "count": int(self.count),
            "sum": float(self.total),
            "min": None if empty else float(self.low),
            "max": None if empty else float(self.high),
            **{
                key: (None if empty else value)
                for key, value in self.percentiles().items()
            },
        }


class MetricsRegistry:
    """Named instruments, created lazily and snapshotted as one dict.

    Get-or-create is thread-safe, so request handlers running on a thread
    pool can share one registry without pre-registering their instruments.
    """

    def __init__(self) -> None:
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, name: str, factory, kind: str):
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = factory()
                self._instruments[name] = instrument
        if instrument.kind != kind:
            raise ValueError(
                f"metric {name!r} is already registered as a "
                f"{instrument.kind}, not a {kind}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        """Get or create the counter registered under ``name``."""
        return self._get_or_create(name, lambda: Counter(name), "counter")

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge registered under ``name``."""
        return self._get_or_create(name, lambda: Gauge(name), "gauge")

    def histogram(
        self, name: str, buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS
    ) -> Histogram:
        """Get or create the histogram registered under ``name``.

        ``buckets`` only applies on first creation; later calls return the
        existing instrument unchanged.
        """
        return self._get_or_create(name, lambda: Histogram(name, buckets), "histogram")

    def snapshot(self) -> dict[str, Any]:
        """Return every instrument's state as one JSON-safe dict.

        Shape (stable)::

            {"counters": {name: int}, "gauges": {name: float},
             "histograms": {name: {count, sum, min, max, p50, p95, p99}}}
        """
        with self._lock:
            instruments = dict(self._instruments)
        out: dict[str, Any] = {"counters": {}, "gauges": {}, "histograms": {}}
        for name in sorted(instruments):
            instrument = instruments[name]
            out[instrument.kind + "s"][name] = instrument.snapshot()
        return out

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def __len__(self) -> int:
        return len(self._instruments)
