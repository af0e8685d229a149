"""Record-at-a-time cleaning: the oracle for :func:`repro.ingest.dedup.clean_batch`.

Walks :class:`TrafficRecord` objects one at a time with a ``set`` of identity
keys and a ``dict`` of conflict groups.  ``clean_batch`` must return the same
records in the same order, with the same report.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from oracles.records import TrafficRecord
from repro.ingest.dedup import DedupReport


def deduplicate_records(
    records: Iterable[TrafficRecord],
) -> tuple[list[TrafficRecord], int]:
    """Remove exact duplicates, preserving first-seen order.

    Returns
    -------
    tuple[list[TrafficRecord], int]
        The deduplicated records and the number of removed duplicates.
    """
    seen: set[tuple] = set()
    output: list[TrafficRecord] = []
    removed = 0
    for record in records:
        key = record.identity_key()
        if key in seen:
            removed += 1
            continue
        seen.add(key)
        output.append(record)
    return output, removed


def resolve_conflicts(
    records: Iterable[TrafficRecord],
) -> tuple[list[TrafficRecord], int, int]:
    """Collapse conflicting versions of the same connection into one record.

    A conflicting group keeps its first-seen record with the median byte
    count of the group.

    Returns
    -------
    tuple[list[TrafficRecord], int, int]
        The resolved records (first-seen order), the number of conflict
        groups found, and the number of records removed by the resolution.
    """
    groups: dict[tuple, list[TrafficRecord]] = {}
    order: list[tuple] = []
    for record in records:
        key = record.conflict_key()
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(record)

    output: list[TrafficRecord] = []
    conflict_groups = 0
    removed = 0
    for key in order:
        group = groups[key]
        if len(group) == 1:
            output.append(group[0])
            continue
        byte_counts = np.array([record.bytes_used for record in group], dtype=float)
        if np.unique(byte_counts).size == 1:
            # Identical copies that survived exact dedup only differ in
            # network field ordering; keep the first.
            output.append(group[0])
            removed += len(group) - 1
            continue
        conflict_groups += 1
        removed += len(group) - 1
        resolved_bytes = float(np.median(byte_counts))
        output.append(group[0].with_bytes(resolved_bytes))
    return output, conflict_groups, removed


def clean_records(
    records: Iterable[TrafficRecord],
) -> tuple[list[TrafficRecord], DedupReport]:
    """Run both cleaning primitives and return the records plus a report."""
    records_list = list(records)
    deduplicated, duplicates_removed = deduplicate_records(records_list)
    resolved, conflict_groups, conflict_removed = resolve_conflicts(deduplicated)
    report = DedupReport(
        num_input_records=len(records_list),
        num_exact_duplicates_removed=duplicates_removed,
        num_conflict_groups=conflict_groups,
        num_conflict_records_removed=conflict_removed,
    )
    return resolved, report
