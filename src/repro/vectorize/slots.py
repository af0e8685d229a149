"""Slot arithmetic for the aggregation phase.

A connection record spans an interval ``[start_s, end_s)``.  When a record
crosses slot boundaries its bytes are split proportionally to the time spent
in each slot, which keeps the aggregated series smooth and conserves total
volume exactly.
"""

from __future__ import annotations

import numpy as np

from repro.utils.timeutils import SLOT_SECONDS


def slot_edges(num_slots: int, *, slot_seconds: int = SLOT_SECONDS) -> np.ndarray:
    """Return the ``num_slots + 1`` slot boundary timestamps in seconds."""
    if num_slots <= 0:
        raise ValueError(f"num_slots must be positive, got {num_slots}")
    return np.arange(num_slots + 1, dtype=float) * slot_seconds


#: Slot indices are clipped to this bound before the cast to int64, so an
#: end far past the window (up to the largest finite double) still casts
#: exactly.  It is half the int64 range: no window comes near it, and the
#: slot arithmetic after the cast (``last - first + 1``, ``first + offset``)
#: stays far from overflow.
_MAX_SLOT_INDEX = float(2**62)


def slot_spans_of_intervals(
    start_s: np.ndarray,
    end_s: np.ndarray,
    *,
    slot_seconds: int = SLOT_SECONDS,
) -> tuple[np.ndarray, np.ndarray]:
    """Return the inclusive ``(first_slot, last_slot)`` of each interval.

    The end is exclusive (an interval ending exactly on a boundary does not
    touch the following slot) and zero-duration intervals occupy the single
    slot containing their start.  Indices past :data:`_MAX_SLOT_INDEX` are
    clipped to it.
    """
    start = np.asarray(start_s, dtype=np.float64)
    end = np.asarray(end_s, dtype=np.float64)
    first = np.minimum(np.floor_divide(start, slot_seconds), _MAX_SLOT_INDEX).astype(np.int64)
    last = np.minimum(
        np.floor_divide(np.nextafter(end, start), slot_seconds), _MAX_SLOT_INDEX
    ).astype(np.int64)
    last = np.maximum(first, last)
    last = np.where(end == start, first, last)
    return first, last


def split_bytes_over_slots_batch(
    start_s: np.ndarray,
    end_s: np.ndarray,
    bytes_used: np.ndarray,
    num_slots: int,
    *,
    slot_seconds: int = SLOT_SECONDS,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split each record's bytes over the slots it overlaps.

    A record spanning several slots contributes ``bytes × overlap /
    duration`` to each; a zero-duration or single-slot record contributes
    its bytes unsplit.  Returns ``(record_index, slot, volume)`` arrays
    listing every in-window contribution, ordered by record then by slot —
    the order a record-at-a-time loop emits them, so downstream
    scatter-adds accumulate in that sequence.  Bytes falling outside
    ``[0, num_slots)`` are dropped, not rescaled onto the window.
    """
    if num_slots <= 0:
        raise ValueError(f"num_slots must be positive, got {num_slots}")
    start = np.asarray(start_s, dtype=np.float64)
    end = np.asarray(end_s, dtype=np.float64)
    volume = np.asarray(bytes_used, dtype=np.float64)
    n = start.shape[0]
    if n == 0:
        empty_i = np.empty(0, dtype=np.int64)
        return empty_i, empty_i.copy(), np.empty(0, dtype=np.float64)

    first, last = slot_spans_of_intervals(start, end, slot_seconds=slot_seconds)
    duration = end - start
    single = (duration == 0) | (first == last)

    # Expand each record to the in-window portion of its slot range.  Slots
    # outside the window never contribute, so clipping the multi-slot ranges
    # up front bounds the expansion at num_slots entries per record
    # (``first`` is always >= 0 because start times are non-negative).
    # Single-slot records keep one entry, range-checked at the end.
    last_clipped = np.where(single, first, np.minimum(last, num_slots - 1))
    counts = np.maximum(last_clipped - first + 1, 1)
    total = int(counts.sum())

    record_index = np.repeat(np.arange(n, dtype=np.int64), counts)
    offsets = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    slots = first[record_index] + offsets

    single_rep = single[record_index]
    safe_duration = np.where(duration > 0, duration, 1.0)
    overlap = np.minimum(end[record_index], (slots + 1) * float(slot_seconds)) - np.maximum(
        start[record_index], slots * float(slot_seconds)
    )
    fraction = overlap / safe_duration[record_index]
    volumes = np.where(
        single_rep, volume[record_index], volume[record_index] * fraction
    )

    keep = (slots >= 0) & (slots < num_slots) & (single_rep | (overlap > 0))
    return record_index[keep], slots[keep], volumes[keep]
