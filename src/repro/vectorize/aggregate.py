"""Aggregation phase of the traffic vectorizer.

Converts raw connection records into a per-tower × per-slot traffic matrix.
Every path from records to a slot grid goes through one function:

* :func:`accumulate_batches` — folds one
  :class:`~repro.ingest.batch.RecordBatch` or a stream of them onto a grid
  the caller owns, in stream order, and counts what it folded.
  :func:`aggregate_batches` calls it with a zero grid (the fit),
  :meth:`~repro.core.model.TrafficPatternModel.update` with a copy of the
  stored grid.
* :func:`scatter_batch_into` — one batch scatter-added onto an existing
  :class:`~repro.synth.traffic.TowerTrafficMatrix`.

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
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer
from repro.synth.traffic import TowerTrafficMatrix
from repro.utils.timeutils import SLOT_SECONDS, TimeWindow
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
    to :func:`accumulate_batches` (or call :meth:`rows_of` directly).
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


def _scatter_batch(batch: RecordBatch, traffic: np.ndarray, index: TowerRowIndex) -> int:
    """Scatter-add one batch's contributions into the traffic matrix.

    Returns the number of records folded: those on a known tower row whose
    start falls inside the grid's window.
    """
    num_slots = traffic.shape[1]
    rows = index.rows_of(batch.tower_id)
    known = rows >= 0
    if not np.any(known):
        return 0
    start_s = batch.start_s[known]
    folded = int(np.count_nonzero(start_s < num_slots * SLOT_SECONDS))
    record_index, slots, volumes = split_bytes_over_slots_batch(
        start_s, batch.end_s[known], batch.bytes_used[known], num_slots
    )
    if slots.size == 0:
        return folded
    # np.add.at applies additions in index order, i.e. the record-then-slot
    # order the expansion emits, which keeps float accumulation identical to
    # a record-at-a-time loop — and it scatters in place, so a streaming
    # pass costs one chunk plus the accumulator, never a full dense temp.
    np.add.at(traffic.reshape(-1), rows[known][record_index] * num_slots + slots, volumes)
    return folded


def accumulate_batches(
    traffic: np.ndarray,
    index: TowerRowIndex,
    batches: RecordBatch | Iterable[RecordBatch],
    *,
    prepare: Callable[[RecordBatch], RecordBatch] | None = None,
    tracer: Tracer | NullTracer | None = None,
    metrics: MetricsRegistry | None = None,
) -> tuple[int, int]:
    """Fold a record batch, or a stream of them, onto ``traffic`` in place.

    ``traffic`` is a ``(towers, slots)`` grid whose rows follow ``index``;
    records on other towers are ignored.  Each chunk is scattered onto
    ``traffic`` in stream order, so memory is one chunk plus the grid.
    ``prepare`` transforms each chunk before it is scattered (e.g.
    :func:`~repro.ingest.dedup.clean_chunk`).  Returns ``(records_seen,
    records_folded)``: the records the stream delivered (after
    ``prepare``), and those on a known tower starting inside the window.
    ``chunks``, ``records_seen`` and ``records_folded`` are counted here
    once, on the open span and as ``ingest.*`` in ``metrics``.
    """
    if isinstance(batches, RecordBatch):
        batches = (batches,)
    tracer = tracer if tracer is not None else NULL_TRACER
    chunks = records_seen = records_folded = 0
    for batch in batches:
        if prepare is not None:
            batch = prepare(batch)
        chunks += 1
        records_seen += len(batch)
        records_folded += _scatter_batch(batch, traffic, index)
    span = tracer.current
    counts = (chunks, records_seen, records_folded)
    for name, value in zip(("chunks", "records_seen", "records_folded"), counts):
        span.count(name, value)
        if metrics is not None:
            metrics.counter(f"ingest.{name}").inc(value)
    return records_seen, records_folded


def aggregate_batches(
    batches: RecordBatch | Iterable[RecordBatch],
    window: TimeWindow,
    tower_ids: Sequence[int],
    *,
    prepare: Callable[[RecordBatch], RecordBatch] | None = None,
    tracer: Tracer | NullTracer | None = None,
    metrics: MetricsRegistry | None = None,
) -> TowerTrafficMatrix:
    """Aggregate a record batch, or a stream of them, into a new grid.

    Rows follow ``tower_ids`` — towers absent from it are ignored, towers
    without records get all-zero rows, and duplicate ids raise
    ``ValueError``.  Peak memory is one chunk plus the accumulator matrix,
    so arbitrarily large traces fit.  The stream is folded onto a zero grid
    by :func:`accumulate_batches`, whose keywords these are.
    """
    ordered = _ordered_tower_ids(tower_ids)
    traffic = np.zeros((ordered.size, window.num_slots))
    accumulate_batches(
        traffic,
        TowerRowIndex(ordered),
        batches,
        prepare=prepare,
        tracer=tracer,
        metrics=metrics,
    )
    return TowerTrafficMatrix(tower_ids=ordered, traffic=traffic, window=window)


def scatter_batch_into(matrix: TowerTrafficMatrix, batch: RecordBatch) -> TowerTrafficMatrix:
    """Scatter-add one record batch into an *existing* traffic matrix, in place.

    Folding a fresh day of cleaned records into a previously aggregated
    matrix continues the exact accumulation sequence
    :func:`aggregate_batches` would have performed had the new batch been
    part of the original stream — ``np.add.at`` applies additions in
    record-then-slot order, so the result is bit-for-bit identical to a full
    re-aggregation of the concatenated trace.  Towers in the batch that have
    no row in ``matrix`` are ignored.

    The matrix is mutated and also returned for chaining.  Callers that need
    the original intact should pass a copy.
    """
    _scatter_batch(batch, matrix.traffic, TowerRowIndex(matrix.tower_ids))
    return matrix
