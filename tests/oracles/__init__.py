"""Scalar reference implementations kept only as equivalence oracles.

Each module here is the straightforward version of a fast path in ``src``:
the one-object-per-row trace record (``records``, with its conversions to
and from a ``RecordBatch``), record-at-a-time cleaning (``dedup``) and slot
aggregation (``aggregate``), the per-target simplex solver (``simplex``),
the full-matrix agglomeration (``generic_backend``), the whole-matrix
distance expansion (``distance``), the condensed pair layout
(``condensed``), the full-scan POI count (``poi_profile``) and the
``tobytes()`` array digest (``fingerprint``).  The tests assert that the
fast path returns what the oracle does — exactly, or within the tolerance
the test states.
"""
