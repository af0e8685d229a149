"""Traffic vectorizer (Section 3.2 of the paper).

Converts raw connection records or per-tower traffic matrices into the
normalised time-domain traffic vectors fed to the pattern identifier:
records are aggregated into 10-minute chunks per tower (aggregation phase)
and each tower's vector is z-score normalised (normalisation phase) so that
amplitude differences between towers do not interfere with the pattern
discovery.
"""

from repro.utils.lazy import lazy_exports

_EXPORTS = {
    "aggregate": ("TowerRowIndex", "accumulate_batches", "aggregate_batches"),
    "normalize": ("NormalizationMethod", "normalize_matrix", "normalize_vector"),
    "slots": ("slot_edges", "slot_spans_of_intervals", "split_bytes_over_slots_batch"),
    "vectorizer": ("TrafficVectorizer", "VectorizedTraffic"),
}

__getattr__ = lazy_exports(__name__, _EXPORTS)

__all__ = sorted(name for names in _EXPORTS.values() for name in names)
