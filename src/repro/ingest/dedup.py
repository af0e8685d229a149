"""Redundant-log elimination and conflict resolution.

The first preprocessing step of the paper removes "redundant and conflict
logs, such as the identical traffic logs, introduced by technical issues".
:func:`clean_batch` does both in one pass over a columnar
:class:`~repro.ingest.batch.RecordBatch`:

* exact duplicates (identical device, tower, interval, byte count and
  technology) keep one copy;
* conflicting versions of one connection (same device, tower and interval,
  different byte counts) collapse into one record carrying the median byte
  count, which is robust to a single corrupted copy.

:func:`clean_chunk` is the same clean without the report, the ``prepare``
hook that cleans each chunk of a streamed fit or update.

The record-at-a-time version it is tested against lives in
``tests/oracles/dedup.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ingest.batch import RecordBatch


@dataclass(frozen=True)
class DedupReport:
    """Summary of a cleaning pass."""

    num_input_records: int
    num_exact_duplicates_removed: int
    num_conflict_groups: int
    num_conflict_records_removed: int

    @property
    def num_output_records(self) -> int:
        """Number of records remaining after cleaning."""
        return (
            self.num_input_records
            - self.num_exact_duplicates_removed
            - self.num_conflict_records_removed
        )

    @property
    def duplicate_fraction(self) -> float:
        """Fraction of input records that were exact duplicates."""
        if self.num_input_records == 0:
            return 0.0
        return self.num_exact_duplicates_removed / self.num_input_records


# Both cleaning steps only ever merge rows sharing the *conflict key*
# (device, tower, interval) — and in particular the exact ``start_s`` bit
# pattern.  With start times drawn from a continuous distribution almost
# every row has a unique start, so rows are first partitioned by a single
# cheap ``argsort`` over ``start_s``: rows whose start is unique are
# provably untouched by cleaning, and only the small candidate fraction
# sharing a start gets the full lexicographic sub-sort by
# ``(start_s, user_id, tower_id, end_s, bytes_used, network)``.  Group
# leaders are the members with the smallest original index (``first-seen'',
# via ``np.minimum.reduceat``), so no sort needs to be stable, and restoring
# the leaders' original order keeps the input's first-seen order.  In the
# worst case (every row sharing one start) the partition degenerates
# gracefully into one full-width sub-sort.


def _run_starts(keys: tuple[np.ndarray, ...]) -> np.ndarray:
    """Return the start offsets of equal-key runs in already-sorted columns."""
    n = keys[0].shape[0]
    new_run = np.zeros(n, dtype=bool)
    new_run[0] = True
    for key in keys:
        new_run[1:] |= key[1:] != key[:-1]
    return np.flatnonzero(new_run)


def _cleaning_candidates(batch: RecordBatch) -> tuple[np.ndarray, np.ndarray]:
    """Partition rows into untouched singletons and cleaning candidates.

    Returns ``(singletons, candidates)`` as original-index arrays.  A row is
    a candidate iff at least one other row shares its exact ``start_s``;
    only candidates can be exact duplicates or conflicting copies.  The
    candidate array comes back sorted by
    ``(start_s, user_id, tower_id, end_s, bytes_used, network)``, i.e. by
    conflict key first, then byte count — the order every downstream
    grouping step relies on.
    """
    order = np.argsort(batch.start_s)
    starts = batch.start_s[order]
    run_head = np.empty(order.shape[0], dtype=bool)
    run_head[0] = True
    run_head[1:] = starts[1:] != starts[:-1]
    run_id = np.cumsum(run_head) - 1
    run_sizes = np.bincount(run_id)
    is_candidate = run_sizes[run_id] > 1
    singletons = order[~is_candidate]
    candidates = order[is_candidate]
    if candidates.size:
        sub_order = np.lexsort(
            (
                batch.network[candidates],
                batch.bytes_used[candidates],
                batch.end_s[candidates],
                batch.tower_id[candidates],
                batch.user_id[candidates],
                batch.start_s[candidates],
            )
        )
        candidates = candidates[sub_order]
    return singletons, candidates


def clean_batch(batch: RecordBatch) -> tuple[RecordBatch, DedupReport]:
    """Drop exact duplicates, resolve conflicts, and report what was removed.

    Survivors keep the input's first-seen order.  The candidate partition
    and its lexicographic sub-sort are computed once and serve both exact
    deduplication (runs of all six columns) and conflict grouping (runs of
    the four conflict-key columns), so the full clean costs one cheap
    partition sort plus one sub-sort of the candidate rows.
    """
    n = len(batch)
    if n == 0:
        return batch, DedupReport(0, 0, 0, 0)
    singletons, candidates = _cleaning_candidates(batch)
    if candidates.size == 0:
        return batch, DedupReport(n, 0, 0, 0)

    # Exact-duplicate runs: all six columns equal.  One representative per
    # run survives — positionally the run head (keeping the candidate order
    # sorted), while its leadership (which original row is "first seen") is
    # the run's smallest original index.
    identity_starts = _run_starts(
        tuple(column[candidates] for column in batch.columns())
    )
    representatives = candidates[identity_starts]
    representative_leaders = np.minimum.reduceat(candidates, identity_starts)
    duplicates_removed = int(candidates.shape[0] - identity_starts.shape[0])

    # The representatives are still sorted by conflict key then bytes, so
    # conflict grouping needs no further sort.
    sorted_bytes = batch.bytes_used[representatives]
    starts = _run_starts(
        (
            batch.start_s[representatives],
            batch.user_id[representatives],
            batch.tower_id[representatives],
            batch.end_s[representatives],
        )
    )
    sizes = np.diff(np.concatenate((starts, [representatives.shape[0]])))
    # Members are byte-sorted inside each group, so a group conflicts iff
    # its first and last byte counts differ, and its median is a middle
    # selection: the centre element for odd sizes, the mean of the two
    # centre elements for even sizes (bit-identical to np.median).
    conflicting = np.flatnonzero(sorted_bytes[starts + sizes - 1] > sorted_bytes[starts])
    leaders = np.minimum.reduceat(representative_leaders, starts)
    group_bytes = batch.bytes_used[leaders]
    mid = starts[conflicting] + sizes[conflicting] // 2
    group_bytes[conflicting] = np.where(
        sizes[conflicting] % 2 == 1,
        sorted_bytes[mid],
        0.5 * (sorted_bytes[mid - 1] + sorted_bytes[mid]),
    )

    kept = np.concatenate((singletons, leaders))
    kept_bytes = np.concatenate((batch.bytes_used[singletons], group_bytes))
    first_seen = np.argsort(kept)
    resolved = batch.take(kept[first_seen]).with_bytes(kept_bytes[first_seen])
    report = DedupReport(
        num_input_records=n,
        num_exact_duplicates_removed=duplicates_removed,
        num_conflict_groups=int(conflicting.shape[0]),
        num_conflict_records_removed=int(identity_starts.shape[0] - starts.shape[0]),
    )
    return resolved, report


def clean_chunk(batch: RecordBatch) -> RecordBatch:
    """:func:`clean_batch` without its report: the per-chunk ``prepare``.

    The CLI's ``fit --input`` and ``update`` pass it to
    :func:`~repro.vectorize.aggregate.accumulate_batches`, which cleans
    each chunk on its own before scattering it.
    """
    cleaned, _ = clean_batch(batch)
    return cleaned
