"""Aggregation phase of the traffic vectorizer.

Converts raw connection records into a per-tower × per-slot traffic matrix.
Three entry points are provided:

* :func:`aggregate_batch` — one :class:`~repro.ingest.batch.RecordBatch`
  in, matrix out, fully vectorized (slot-range expansion + scatter-add).
* :func:`aggregate_batches` — the out-of-core path: a stream of batches
  scattered into one accumulator matrix, so traces larger than memory can be
  aggregated chunk by chunk.
* :func:`scatter_batch_into` — one batch scatter-added onto an existing
  matrix (the incremental update).

The paper's Hadoop job processed petabytes; these paths are the
single-machine analogue.  Each record's bytes are split over the slots it
overlaps in proportion to the time spent in each, and contributions are
added in record-then-slot order — the order of the record-at-a-time loop in
``tests/oracles/aggregate.py``, which a single batch matches bit for bit.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from repro.ingest.batch import RecordBatch
from repro.synth.traffic import TowerTrafficMatrix
from repro.utils.timeutils import TimeWindow
from repro.vectorize.slots import split_bytes_over_slots_batch


def _ordered_tower_ids(tower_ids: Sequence[int]) -> np.ndarray:
    """Return the explicit row ordering, rejecting duplicate ids."""
    ordered = np.asarray(list(tower_ids), dtype=np.int64)
    unique, counts = np.unique(ordered, return_counts=True)
    if np.any(counts > 1):
        duplicates = unique[counts > 1].tolist()
        raise ValueError(
            f"tower_ids contains duplicate ids {duplicates}; each row of the "
            "traffic matrix must map to exactly one tower"
        )
    return ordered


class TowerRowIndex:
    """Reusable tower-id → matrix-row lookup for a fixed row ordering.

    The sorter and sorted-id arrays needed by the ``searchsorted`` lookup are
    computed once at construction, so a streaming pass over thousands of
    chunks pays the ``argsort`` of the (typically small) tower directory a
    single time instead of once per chunk.  Build one per stream and pass it
    to :func:`scatter_batch_into` (or call :meth:`rows_of` directly).
    """

    __slots__ = ("ordered_ids", "_sorter", "_sorted_ids")

    def __init__(self, ordered_ids: np.ndarray | Sequence[int]) -> None:
        self.ordered_ids = np.asarray(ordered_ids, dtype=np.int64)
        self._sorter = np.argsort(self.ordered_ids, kind="stable")
        self._sorted_ids = self.ordered_ids[self._sorter]

    def __len__(self) -> int:
        return int(self.ordered_ids.size)

    def rows_of(self, tower_column: np.ndarray) -> np.ndarray:
        """Map a tower-id column to matrix rows; unknown towers map to ``-1``."""
        if self.ordered_ids.size == 0:
            return np.full(np.asarray(tower_column).shape, -1, dtype=np.int64)
        positions = np.searchsorted(self._sorted_ids, tower_column)
        positions = np.minimum(positions, self._sorted_ids.size - 1)
        matched = self._sorted_ids[positions] == tower_column
        return np.where(matched, self._sorter[positions], -1)


def _scatter_batch(batch: RecordBatch, traffic: np.ndarray, index: TowerRowIndex) -> None:
    """Scatter-add one batch's contributions into the traffic matrix."""
    num_slots = traffic.shape[1]
    rows = index.rows_of(batch.tower_id)
    known = rows >= 0
    if not np.any(known):
        return
    record_index, slots, volumes = split_bytes_over_slots_batch(
        batch.start_s[known], batch.end_s[known], batch.bytes_used[known], num_slots
    )
    if slots.size == 0:
        return
    # np.add.at applies additions in index order, i.e. the record-then-slot
    # order the expansion emits, which keeps float accumulation identical to
    # a record-at-a-time loop — and it scatters in place, so a streaming
    # pass costs one chunk plus the accumulator, never a full dense temp.
    np.add.at(traffic.reshape(-1), rows[known][record_index] * num_slots + slots, volumes)


def aggregate_batch(
    batch: RecordBatch,
    window: TimeWindow,
    *,
    tower_ids: Sequence[int] | None = None,
) -> TowerTrafficMatrix:
    """Aggregate a columnar record batch into a :class:`TowerTrafficMatrix`.

    Rows follow ``tower_ids`` when given — towers absent from it are
    ignored, towers without records get all-zero rows, and duplicate ids
    raise ``ValueError`` — else the sorted set of tower ids in the batch.
    """
    if tower_ids is None:
        ordered = np.unique(batch.tower_id)
    else:
        ordered = _ordered_tower_ids(tower_ids)
    traffic = np.zeros((ordered.size, window.num_slots))
    _scatter_batch(batch, traffic, TowerRowIndex(ordered))
    return TowerTrafficMatrix(tower_ids=ordered, traffic=traffic, window=window)


def aggregate_batches(
    batches: Iterable[RecordBatch],
    window: TimeWindow,
    tower_ids: Sequence[int],
    *,
    workers: int = 0,
    prepare: Callable[[RecordBatch], RecordBatch] | None = None,
    tracer=None,
    metrics=None,
) -> TowerTrafficMatrix:
    """Aggregate a stream of record batches without materialising the trace.

    ``tower_ids`` must be provided up front (a streaming pass cannot discover
    the row set without a second pass over the data).  Peak memory is one
    chunk plus the accumulator matrix, so arbitrarily large traces fit.

    Parameters
    ----------
    workers:
        ``0`` (default) streams the chunks serially through this process —
        the equivalence reference.  ``>= 1`` fans chunks out to that many
        :mod:`multiprocessing` workers scattering into shared-memory shard
        grids (see :mod:`repro.vectorize.parallel`); ``-1`` uses all cores.
        Parallel results are deterministic for a fixed worker count but may
        differ from the serial matrix at the ulp level (per-shard partial
        sums are reduced in fixed shard order, a different accumulation
        order than the serial single-accumulator pass).
    prepare:
        Optional per-chunk transform (e.g. cleaning) applied to each batch
        before scattering — inline when serial, inside the workers when
        parallel (it must be picklable then, i.e. a module-level callable).
    tracer:
        Optional :class:`repro.obs.Tracer`.  Chunk/record counters land on
        the innermost open span (``tracer.current``); the parallel path
        additionally grafts one pre-measured ``worker-{id}`` child span per
        shard.  Defaults to the no-op tracer.
    metrics:
        Optional :class:`repro.obs.MetricsRegistry` accumulating the
        ``ingest.chunks`` / ``ingest.records_seen`` counters (plus
        ``ingest.records_folded`` and the queue-occupancy histogram on the
        parallel path).
    """
    from repro.obs.trace import NULL_TRACER
    from repro.vectorize.parallel import (
        parallel_aggregate_batches_with_stats,
        resolve_workers,
    )

    tracer = tracer if tracer is not None else NULL_TRACER
    num_workers = resolve_workers(workers)
    if num_workers > 0:
        matrix, stats = parallel_aggregate_batches_with_stats(
            batches,
            window,
            tower_ids,
            workers=num_workers,
            prepare=prepare,
            tracer=tracer,
            metrics=metrics,
        )
        span = tracer.current
        span.count("chunks", stats.chunks)
        span.count("records_seen", stats.records_seen)
        span.count("records_folded", stats.records_folded)
        return matrix
    ordered = _ordered_tower_ids(tower_ids)
    index = TowerRowIndex(ordered)
    traffic = np.zeros((ordered.size, window.num_slots))
    span = tracer.current
    chunks = 0
    records_seen = 0
    for batch in batches:
        if prepare is not None:
            batch = prepare(batch)
        chunks += 1
        records_seen += len(batch)
        _scatter_batch(batch, traffic, index)
    span.count("chunks", chunks)
    span.count("records_seen", records_seen)
    if metrics is not None:
        metrics.counter("ingest.chunks").inc(chunks)
        metrics.counter("ingest.records_seen").inc(records_seen)
    return TowerTrafficMatrix(tower_ids=ordered, traffic=traffic, window=window)


def scatter_batch_into(
    matrix: TowerTrafficMatrix,
    batch: RecordBatch,
    *,
    index: TowerRowIndex | None = None,
) -> TowerTrafficMatrix:
    """Scatter-add one record batch into an *existing* traffic matrix, in place.

    This is the incremental-update primitive: folding a fresh day of cleaned
    records into a previously aggregated matrix continues the exact
    accumulation sequence :func:`aggregate_batches` would have performed had
    the new batch been part of the original stream — ``np.add.at`` applies
    additions in record-then-slot order, so the result is bit-for-bit
    identical to a full re-aggregation of the concatenated trace.  Towers in
    the batch that have no row in ``matrix`` are ignored (same semantics as
    the explicit ``tower_ids`` path of :func:`aggregate_batch`).

    The matrix is mutated and also returned for chaining.  Callers that need
    the original intact should pass a copy.

    Callers scattering many batches into the same matrix should build a
    :class:`TowerRowIndex` over ``matrix.tower_ids`` once and pass it as
    ``index`` so the row lookup tables are not re-sorted per batch.
    """
    if index is None:
        index = TowerRowIndex(matrix.tower_ids)
    _scatter_batch(batch, matrix.traffic, index)
    return matrix
