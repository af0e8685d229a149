"""Traffic vectorizer (Section 3.2 of the paper).

Converts raw connection records or per-tower traffic matrices into the
normalised time-domain traffic vectors fed to the pattern identifier:
records are aggregated into 10-minute chunks per tower (aggregation phase)
and each tower's vector is z-score normalised (normalisation phase) so that
amplitude differences between towers do not interfere with the pattern
discovery.
"""

from repro.vectorize.aggregate import (
    TowerRowIndex,
    aggregate_batch,
    aggregate_batches,
)
from repro.vectorize.normalize import NormalizationMethod, normalize_matrix, normalize_vector
from repro.vectorize.parallel import (
    ParallelAggregateStats,
    ParallelIngestError,
    clean_chunk,
    parallel_aggregate_batches,
    parallel_aggregate_batches_with_stats,
    resolve_workers,
)
from repro.vectorize.slots import (
    slot_edges,
    slot_spans_of_intervals,
    split_bytes_over_slots_batch,
)
from repro.vectorize.vectorizer import TrafficVectorizer, VectorizedTraffic

__all__ = [
    "NormalizationMethod",
    "ParallelAggregateStats",
    "ParallelIngestError",
    "TowerRowIndex",
    "TrafficVectorizer",
    "VectorizedTraffic",
    "aggregate_batch",
    "aggregate_batches",
    "clean_chunk",
    "normalize_matrix",
    "normalize_vector",
    "parallel_aggregate_batches",
    "parallel_aggregate_batches_with_stats",
    "resolve_workers",
    "slot_edges",
    "slot_spans_of_intervals",
    "split_bytes_over_slots_batch",
]
