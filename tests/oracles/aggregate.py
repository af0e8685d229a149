"""Record-at-a-time slot aggregation: the oracle for :mod:`repro.vectorize.aggregate`.

Splits each record's bytes over its slots in a Python loop and adds them to
the matrix one contribution at a time, in record-then-slot order.
``aggregate_batches`` over one batch must build the same matrix bit for bit.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.ingest.records import TrafficRecord
from repro.synth.traffic import TowerTrafficMatrix
from repro.utils.timeutils import SLOT_SECONDS, TimeWindow


def slot_span_of_record(
    record: TrafficRecord, *, slot_seconds: int = SLOT_SECONDS
) -> tuple[int, int]:
    """Return the inclusive ``(first_slot, last_slot)`` touched by a record.

    Instantaneous records (zero duration) occupy the single slot containing
    their start time.
    """
    first = int(record.start_s // slot_seconds)
    if record.duration_s == 0:
        return first, first
    # The end is exclusive: a record ending exactly on a boundary does not
    # touch the following slot.
    last = int(np.nextafter(record.end_s, record.start_s) // slot_seconds)
    return first, max(first, last)


def split_bytes_over_slots(
    record: TrafficRecord,
    num_slots: int,
    *,
    slot_seconds: int = SLOT_SECONDS,
) -> list[tuple[int, float]]:
    """Split a record's bytes over the slots it overlaps.

    Returns a list of ``(slot_index, bytes)`` pairs restricted to
    ``[0, num_slots)``; bytes falling outside the observation window are
    dropped, not rescaled onto the slots inside it.
    """
    if num_slots <= 0:
        raise ValueError(f"num_slots must be positive, got {num_slots}")
    first, last = slot_span_of_record(record, slot_seconds=slot_seconds)
    if record.duration_s == 0 or first == last:
        if 0 <= first < num_slots:
            return [(first, record.bytes_used)]
        return []

    contributions: list[tuple[int, float]] = []
    for slot in range(first, last + 1):
        slot_start = slot * slot_seconds
        slot_end = slot_start + slot_seconds
        overlap = min(record.end_s, slot_end) - max(record.start_s, slot_start)
        if overlap <= 0:
            continue
        fraction = overlap / record.duration_s
        if 0 <= slot < num_slots:
            contributions.append((slot, record.bytes_used * fraction))
    return contributions


def aggregate_records(
    records: Iterable[TrafficRecord],
    window: TimeWindow,
    *,
    tower_ids: Sequence[int] | None = None,
) -> TowerTrafficMatrix:
    """Aggregate record objects into a :class:`TowerTrafficMatrix`.

    Rows follow ``tower_ids`` when given (towers absent from it are
    ignored, towers without records get all-zero rows), else the sorted set
    of tower ids seen in the records.
    """
    records_list = list(records)
    if tower_ids is None:
        ordered = sorted({record.tower_id for record in records_list})
    else:
        ordered = [int(tower_id) for tower_id in tower_ids]
    index = {tower_id: row for row, tower_id in enumerate(ordered)}
    num_slots = window.num_slots
    traffic = np.zeros((len(index), num_slots))

    for record in records_list:
        row = index.get(record.tower_id)
        if row is None:
            continue
        for slot, volume in split_bytes_over_slots(record, num_slots):
            traffic[row, slot] += volume

    return TowerTrafficMatrix(
        tower_ids=np.array(ordered, dtype=int), traffic=traffic, window=window
    )
