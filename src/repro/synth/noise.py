"""Log corruption: redundant and conflicting records.

The paper's preprocessing first "eliminates the redundant and conflict logs,
such as the identical traffic logs, introduced by technical issues".  To make
the cleaning stage meaningful on synthetic data, this module deliberately
corrupts a clean record batch by

* duplicating a fraction of records exactly (redundant logs), and
* emitting additional copies of a fraction of records with a perturbed byte
  count (conflicting logs — same device, tower and interval, different
  volume).

The corruption is reversible in aggregate: deduplication plus conflict
resolution should recover a trace whose per-tower volumes match the clean
trace closely, which is what the ingestion tests assert.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ingest.batch import RecordBatch
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_fraction, check_positive


@dataclass(frozen=True)
class LogCorruptionConfig:
    """Configuration of the log corruption step."""

    duplicate_fraction: float = 0.05
    conflict_fraction: float = 0.02
    conflict_byte_jitter: float = 0.3
    max_duplicates_per_record: int = 3

    def __post_init__(self) -> None:
        check_fraction(self.duplicate_fraction, "duplicate_fraction")
        check_fraction(self.conflict_fraction, "conflict_fraction")
        check_positive(self.conflict_byte_jitter, "conflict_byte_jitter")
        if self.max_duplicates_per_record < 1:
            raise ValueError(
                "max_duplicates_per_record must be at least 1, got "
                f"{self.max_duplicates_per_record}"
            )


@dataclass(frozen=True)
class CorruptionReport:
    """Summary of the corruption applied to a record stream."""

    num_input_records: int
    num_duplicates_added: int
    num_conflicts_added: int

    @property
    def num_output_records(self) -> int:
        """Total number of records after corruption."""
        return self.num_input_records + self.num_duplicates_added + self.num_conflicts_added


def corrupt_batch(
    batch: RecordBatch,
    config: LogCorruptionConfig | None = None,
    *,
    rng: int | np.random.Generator | None = None,
) -> tuple[RecordBatch, CorruptionReport]:
    """Return a corrupted copy of ``batch`` plus a corruption report.

    Each record draws one roll: below ``duplicate_fraction`` it gains 1 to
    ``max_duplicates_per_record`` exact copies; below ``duplicate_fraction +
    conflict_fraction`` it gains one copy whose byte count is multiplied by
    a factor drawn uniformly from ``1 ± conflict_byte_jitter`` (floored at
    zero bytes).  The corrupted batch is shuffled so duplicates do not sit
    next to their originals.
    """
    cfg = config or LogCorruptionConfig()
    generator = ensure_rng(rng)
    n = len(batch)

    rolls = generator.random(n)
    duplicate_mask = rolls < cfg.duplicate_fraction
    conflict_mask = (~duplicate_mask) & (
        rolls < cfg.duplicate_fraction + cfg.conflict_fraction
    )

    duplicate_sources = np.flatnonzero(duplicate_mask)
    copies = generator.integers(
        1, cfg.max_duplicates_per_record + 1, size=duplicate_sources.size
    )
    duplicate_rows = np.repeat(duplicate_sources, copies)

    conflict_sources = np.flatnonzero(conflict_mask)
    jitter = 1.0 + generator.uniform(
        -cfg.conflict_byte_jitter, cfg.conflict_byte_jitter, size=conflict_sources.size
    )
    conflict_part = batch.take(conflict_sources)
    conflict_part = conflict_part.with_bytes(
        np.maximum(conflict_part.bytes_used * jitter, 0.0)
    )

    corrupted = RecordBatch.concat([batch, batch.take(duplicate_rows), conflict_part])
    corrupted = corrupted.take(generator.permutation(len(corrupted)))

    report = CorruptionReport(
        num_input_records=n,
        num_duplicates_added=int(duplicate_rows.size),
        num_conflicts_added=int(conflict_sources.size),
    )
    return corrupted, report
