"""Shard-parallel ingest→aggregate plane.

The paper's original pipeline was a Hadoop job over petabytes of operator
records; the serial single-machine analogue (:func:`~repro.vectorize.
aggregate.aggregate_batches`) streams chunks through one process and leaves
every other core idle.  Slot scatter-add is associative, so the work shards
cleanly: per-chunk partial traffic grids can be built by independent workers
and merged by summation.  This module implements that plane on
:mod:`multiprocessing`:

* the **feeder** (main process) iterates the batch stream — typically a
  chunked CSV reader, so file I/O overlaps with scattering — and
  assigns chunk ``i`` to shard ``i mod workers`` (fixed round-robin).  Each
  chunk's columns are copied into a per-chunk
  :mod:`multiprocessing.shared_memory` block (one memcpy; pickling the
  arrays through a pipe would cost as much as the scatter itself and cap
  the scaling), and only a tiny ``(block name, column layout)`` descriptor
  travels through the shard's *bounded* task queue — so peak memory stays
  at roughly ``workers × queue_depth`` chunks in flight plus the shard
  grids;
* each **worker** owns one shard: it maps the chunk block, applies the
  optional ``prepare`` transform (e.g. :func:`clean_chunk`), scatters into
  a per-worker accumulator grid (also a shared-memory ndarray) and unlinks
  the chunk block.  A shard's queue is FIFO, so chunks accumulate within a
  shard in stream order;
* the **reducer** sums the shard grids in fixed shard order ``0..workers-1``
  once all workers report done.

Determinism and float semantics
-------------------------------
Because both the chunk→shard assignment and the reduction order are fixed,
the result for a given worker count is **bit-for-bit identical run to run**,
regardless of which worker finishes first.  It is *not* bit-for-bit equal to
the serial path: the serial pass folds every chunk into one accumulator in
stream order, whereas the parallel pass sums per-shard partials, a different
floating-point accumulation order.  The matrices therefore agree to within a
few ulps; the serial path is kept unchanged as the equivalence reference,
per the repo's bit-for-bit discipline.

Failure semantics
-----------------
A worker that raises (including inside ``prepare``) reports its traceback
and the pool is torn down with a :class:`ParallelIngestError`; a worker that
dies outright (killed, ``os._exit``) is detected by liveness checks in the
feed/drain loops, so a crash surfaces as a clean error instead of a hang.
"""

from __future__ import annotations

import os
import queue as queue_module
import time
import traceback
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.ingest.batch import RecordBatch
from repro.ingest.dedup import clean_batch
from repro.obs.metrics import DEFAULT_COUNT_BUCKETS, MetricsRegistry
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer
from repro.synth.traffic import TowerTrafficMatrix
from repro.utils.timeutils import TimeWindow

#: Maximum number of chunks queued per worker before the feeder blocks.
DEFAULT_QUEUE_DEPTH = 2

#: Seconds between liveness checks while feeding/draining the pool.
_POLL_SECONDS = 0.05

#: Seconds a worker gets to exit after reporting (or after a teardown).
_JOIN_SECONDS = 10.0


class ParallelIngestError(RuntimeError):
    """A worker of the parallel ingest pool failed (or died silently)."""


@dataclass(frozen=True)
class ParallelAggregateStats:
    """Pool-wide counters summed over all workers of one parallel pass."""

    workers: int
    chunks: int
    records_seen: int
    records_folded: int


def resolve_workers(workers: int) -> int:
    """Normalise a ``workers`` request to an explicit worker count.

    ``0`` means serial (returns 0), ``-1`` means all cores, any positive
    value is taken as-is.  Anything below ``-1`` is rejected.
    """
    workers = int(workers)
    if workers < -1:
        raise ValueError(f"workers must be >= -1, got {workers}")
    if workers == -1:
        try:
            return len(os.sched_getaffinity(0))
        except AttributeError:  # platforms without sched_getaffinity
            return os.cpu_count() or 1
    return workers


def clean_chunk(batch: RecordBatch) -> RecordBatch:
    """Per-chunk cleaning ``prepare``: dedup + conflict resolution, no report.

    Module-level (hence picklable) wrapper around
    :func:`repro.ingest.dedup.clean_batch` for use as the ``prepare``
    callable of the parallel plane — each worker cleans its own chunks
    before scattering, mirroring the serial ``--chunk-size`` CLI path.
    """
    cleaned, _ = clean_batch(batch)
    return cleaned


#: A chunk travelling feeder → worker: shared-memory block name plus the
#: ``(dtype, shape, offset)`` layout of the six columns inside it.
_ChunkHandle = tuple[str, list[tuple[str, tuple[int, ...], int]]]


def _batch_to_shm(batch: RecordBatch) -> _ChunkHandle:
    """Copy a batch's columns into a fresh shared-memory block (one memcpy)."""
    from multiprocessing import shared_memory

    columns = batch.columns()
    total = sum(column.nbytes for column in columns)
    block = shared_memory.SharedMemory(create=True, size=max(1, total))
    layout: list[tuple[str, tuple[int, ...], int]] = []
    offset = 0
    for column in columns:
        view = np.ndarray(
            column.shape, dtype=column.dtype, buffer=block.buf, offset=offset
        )
        view[...] = column
        layout.append((column.dtype.str, column.shape, offset))
        offset += column.nbytes
    block.close()  # drop the feeder's mapping; the name stays valid
    return block.name, layout


def _batch_from_shm(handle: _ChunkHandle):
    """Map a chunk block back into a (zero-copy) :class:`RecordBatch`.

    Returns ``(block, batch)``; the caller must keep ``block`` open while
    using the batch, then close **and unlink** it (each chunk block is
    consumed exactly once).
    """
    from multiprocessing import shared_memory

    name, layout = handle
    block = shared_memory.SharedMemory(name=name)
    columns = [
        np.ndarray(shape, dtype=np.dtype(dtype), buffer=block.buf, offset=offset)
        for dtype, shape, offset in layout
    ]
    return block, RecordBatch._from_validated(*columns)


def _worker_main(
    worker_id: int,
    shm_name: str,
    grid_shape: tuple[int, int],
    ordered_ids: np.ndarray,
    window_seconds: float,
    prepare: Callable[[RecordBatch], RecordBatch] | None,
    task_queue,
    done_queue,
) -> None:
    """Worker loop: drain the shard's queue, scatter into the shard grid."""
    # Imported here (not at module top) so a spawn-context child only pays
    # for what it needs; under fork it is already in the parent's modules.
    from multiprocessing import shared_memory

    from repro.vectorize.aggregate import TowerRowIndex, _scatter_batch

    try:
        shm = shared_memory.SharedMemory(name=shm_name)
        try:
            grid = np.ndarray(grid_shape, dtype=np.float64, buffer=shm.buf)
            index = TowerRowIndex(ordered_ids)
            chunks = 0
            records_seen = 0
            records_folded = 0
            wall_start = time.perf_counter()
            cpu_start = time.process_time()
            while True:
                task = task_queue.get()
                if task is None:
                    break
                block, batch = _batch_from_shm(task)
                try:
                    if prepare is not None:
                        batch = prepare(batch)
                    records_seen += len(batch)
                    if len(batch):
                        contributes = index.rows_of(batch.tower_id) >= 0
                        contributes &= batch.start_s < window_seconds
                        records_folded += int(np.count_nonzero(contributes))
                    _scatter_batch(batch, grid, index)
                    chunks += 1
                finally:
                    # Each chunk block is consumed exactly once: drop the
                    # mapping and the segment itself.
                    block.close()
                    block.unlink()
            # Report the shard's counters plus its own wall/CPU time so the
            # parent can graft a pre-measured span onto a live trace.
            wall = time.perf_counter() - wall_start
            cpu = time.process_time() - cpu_start
            done_queue.put(
                ("done", worker_id, (chunks, records_seen, records_folded, wall, cpu))
            )
        finally:
            # Close the local mapping only; the parent owns (and unlinks)
            # the segment after reducing.
            shm.close()
    except BaseException:
        done_queue.put(("error", worker_id, traceback.format_exc()))


class _ShardPool:
    """The worker pool plus its shared-memory shard grids and queues."""

    def __init__(
        self,
        num_workers: int,
        grid_shape: tuple[int, int],
        ordered_ids: np.ndarray,
        window_seconds: float,
        *,
        prepare: Callable[[RecordBatch], RecordBatch] | None,
        queue_depth: int,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        import multiprocessing as mp
        from multiprocessing import shared_memory

        self.num_workers = num_workers
        self.grid_shape = grid_shape
        self.metrics = metrics
        context = mp.get_context()
        nbytes = max(8, int(np.prod(grid_shape)) * np.dtype(np.float64).itemsize)
        self.shards: list[shared_memory.SharedMemory] = []
        self.task_queues = []
        self.processes = []
        self.done_queue = context.Queue()
        self._done: dict[int, tuple[int, int, int, float, float]] = {}
        self._sent_blocks: list[str] = []
        self._closed = False
        try:
            for worker_id in range(num_workers):
                shm = shared_memory.SharedMemory(create=True, size=nbytes)
                np.ndarray(grid_shape, dtype=np.float64, buffer=shm.buf).fill(0.0)
                self.shards.append(shm)
                self.task_queues.append(context.Queue(maxsize=queue_depth))
            for worker_id in range(num_workers):
                process = context.Process(
                    target=_worker_main,
                    args=(
                        worker_id,
                        self.shards[worker_id].name,
                        grid_shape,
                        ordered_ids,
                        window_seconds,
                        prepare,
                        self.task_queues[worker_id],
                        self.done_queue,
                    ),
                    daemon=True,
                )
                process.start()
                self.processes.append(process)
        except BaseException:
            self.close(force=True)
            raise

    # ------------------------------------------------------------------
    # Failure detection
    # ------------------------------------------------------------------

    def _drain_messages(self, block_seconds: float | None = None) -> None:
        """Collect pending worker messages, raising on a reported error."""
        while True:
            try:
                if block_seconds is None:
                    message = self.done_queue.get_nowait()
                else:
                    message = self.done_queue.get(timeout=block_seconds)
                    block_seconds = None  # only block for the first message
            except queue_module.Empty:
                return
            kind, worker_id, payload = message
            if kind == "error":
                raise ParallelIngestError(
                    f"parallel ingest worker {worker_id} failed:\n{payload}"
                )
            self._done[worker_id] = payload

    def _check_liveness(self) -> None:
        """Raise if any worker died without reporting a result."""
        for worker_id, process in enumerate(self.processes):
            if worker_id in self._done:
                continue
            if not process.is_alive() and process.exitcode not in (None, 0):
                raise ParallelIngestError(
                    f"parallel ingest worker {worker_id} died with exit code "
                    f"{process.exitcode} before finishing its shard"
                )

    # ------------------------------------------------------------------
    # Feed → finish → reduce
    # ------------------------------------------------------------------

    def put(self, shard: int, payload) -> None:
        """Enqueue a task on one shard, watching for worker failures."""
        task_queue = self.task_queues[shard]
        while True:
            try:
                task_queue.put(payload, timeout=_POLL_SECONDS)
                return
            except queue_module.Full:
                self._drain_messages()
                self._check_liveness()

    def put_batch(self, shard: int, batch: RecordBatch) -> None:
        """Copy a chunk into shared memory and enqueue its handle."""
        if self.metrics is not None:
            try:
                occupancy = self.task_queues[shard].qsize()
            except NotImplementedError:  # pragma: no cover - macOS qsize
                pass
            else:
                self.metrics.histogram(
                    "ingest.queue_occupancy", DEFAULT_COUNT_BUCKETS
                ).observe(occupancy)
        handle = _batch_to_shm(batch)
        # Remembered so a forced teardown can unlink blocks no worker got
        # around to consuming (workers unlink the ones they did consume).
        self._sent_blocks.append(handle[0])
        self.put(shard, handle)

    def finish(self) -> ParallelAggregateStats:
        """Send sentinels, wait for every worker's final report."""
        for shard in range(self.num_workers):
            self.put(shard, None)
        while len(self._done) < self.num_workers:
            self._drain_messages(block_seconds=_POLL_SECONDS)
            self._check_liveness()
        for process in self.processes:
            process.join(timeout=_JOIN_SECONDS)
        chunks = sum(payload[0] for payload in self._done.values())
        seen = sum(payload[1] for payload in self._done.values())
        folded = sum(payload[2] for payload in self._done.values())
        return ParallelAggregateStats(
            workers=self.num_workers,
            chunks=chunks,
            records_seen=seen,
            records_folded=folded,
        )

    def worker_reports(self) -> list[tuple[int, tuple[int, int, int, float, float]]]:
        """Per-worker ``(chunks, seen, folded, wall_s, cpu_s)`` reports.

        Sorted by ascending worker id (not completion order), so trace
        grafting is deterministic run to run.
        """
        return sorted(self._done.items())

    def reduce(self) -> np.ndarray:
        """Sum the shard grids in fixed shard order (deterministic)."""
        total = np.zeros(self.grid_shape, dtype=np.float64)
        for shm in self.shards:  # shard 0, 1, … — never completion order
            total += np.ndarray(self.grid_shape, dtype=np.float64, buffer=shm.buf)
        return total

    def close(self, *, force: bool = False) -> None:
        """Tear the pool down; ``force`` terminates still-running workers."""
        if self._closed:
            return
        self._closed = True
        for process in self.processes:
            if force and process.is_alive():
                process.terminate()
            process.join(timeout=_JOIN_SECONDS)
        for task_queue in self.task_queues:
            task_queue.close()
            task_queue.cancel_join_thread()
        self.done_queue.close()
        self.done_queue.cancel_join_thread()
        for shm in self.shards:
            shm.close()
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - double unlink
                pass
        if force:
            # Error teardown: chunk blocks still in flight were never
            # consumed (their workers are gone) — unlink them here.
            from multiprocessing import shared_memory

            for name in self._sent_blocks:
                try:
                    leftover = shared_memory.SharedMemory(name=name)
                except FileNotFoundError:  # already consumed by its worker
                    continue
                leftover.close()
                leftover.unlink()


def parallel_aggregate_batches_with_stats(
    batches: Iterable[RecordBatch],
    window: TimeWindow,
    tower_ids: Sequence[int] | np.ndarray,
    *,
    workers: int,
    prepare: Callable[[RecordBatch], RecordBatch] | None = None,
    queue_depth: int = DEFAULT_QUEUE_DEPTH,
    tracer: Tracer | NullTracer | None = None,
    metrics: MetricsRegistry | None = None,
) -> tuple[TowerTrafficMatrix, ParallelAggregateStats]:
    """Shard-parallel :func:`~repro.vectorize.aggregate.aggregate_batches`.

    Fans the batch stream out to ``workers`` processes (chunk ``i`` →
    shard ``i mod workers``), scatters each shard into its own
    shared-memory grid and reduces the grids in fixed shard order.  Returns
    the aggregated matrix together with pool-wide counters
    (``records_folded`` counts records landing on a known tower row with a
    start inside the window — the quantity
    :meth:`~repro.core.model.TrafficPatternModel.update` reports).

    ``workers`` must be ``>= 1`` here; callers wanting the ``0 = serial`` /
    ``-1 = all cores`` convention should go through
    :func:`~repro.vectorize.aggregate.aggregate_batches` (or call
    :func:`resolve_workers` first).  ``prepare`` must be picklable
    (module-level), e.g. :func:`clean_chunk`.

    ``tracer`` grafts one pre-measured ``worker-{id}`` child span per shard
    (wall/CPU time measured inside the worker process, counters ``chunks``/
    ``records_seen``/``records_folded``) under the currently open span, in
    ascending worker-id order — never completion order — so merged traces
    are deterministic.  ``metrics`` feeds the cumulative ingest counters and
    the ``ingest.queue_occupancy`` histogram (task-queue depth sampled at
    each enqueue).

    Raises
    ------
    ParallelIngestError
        If a worker raises or dies; the pool is torn down first, so the
        error surfaces instead of a hang.
    """
    from repro.vectorize.aggregate import _ordered_tower_ids

    if workers < 1:
        raise ValueError(f"workers must be >= 1 for the parallel plane, got {workers}")
    if queue_depth < 1:
        raise ValueError(f"queue_depth must be >= 1, got {queue_depth}")
    ordered = _ordered_tower_ids(tower_ids)
    grid_shape = (int(ordered.size), int(window.num_slots))
    tracer = tracer if tracer is not None else NULL_TRACER
    pool = _ShardPool(
        workers,
        grid_shape,
        ordered,
        float(window.num_seconds),
        prepare=prepare,
        queue_depth=queue_depth,
        metrics=metrics,
    )
    try:
        for chunk_index, batch in enumerate(batches):
            pool.put_batch(chunk_index % workers, batch)
        stats = pool.finish()
        traffic = pool.reduce()
    except BaseException:
        pool.close(force=True)
        raise
    pool.close()
    if tracer.enabled:
        for worker_id, (chunks, seen, folded, wall, cpu) in pool.worker_reports():
            tracer.attach(
                f"worker-{worker_id}",
                wall_seconds=wall,
                cpu_seconds=cpu,
                counters={
                    "chunks": chunks,
                    "records_seen": seen,
                    "records_folded": folded,
                },
            )
    if metrics is not None:
        metrics.counter("ingest.chunks").inc(stats.chunks)
        metrics.counter("ingest.records_seen").inc(stats.records_seen)
        metrics.counter("ingest.records_folded").inc(stats.records_folded)
    return (
        TowerTrafficMatrix(tower_ids=ordered, traffic=traffic, window=window),
        stats,
    )


def parallel_aggregate_batches(
    batches: Iterable[RecordBatch],
    window: TimeWindow,
    tower_ids: Sequence[int] | np.ndarray,
    *,
    workers: int,
    prepare: Callable[[RecordBatch], RecordBatch] | None = None,
    queue_depth: int = DEFAULT_QUEUE_DEPTH,
    tracer: Tracer | NullTracer | None = None,
    metrics: MetricsRegistry | None = None,
) -> TowerTrafficMatrix:
    """:func:`parallel_aggregate_batches_with_stats` without the counters."""
    matrix, _ = parallel_aggregate_batches_with_stats(
        batches,
        window,
        tower_ids,
        workers=workers,
        prepare=prepare,
        queue_depth=queue_depth,
        tracer=tracer,
        metrics=metrics,
    )
    return matrix
