"""Scalar reference implementations kept only as equivalence oracles.

Each module here is the straightforward version of a fast path in ``src``:
record-at-a-time cleaning (``dedup``) and slot aggregation (``aggregate``),
the per-target simplex solver (``simplex``), the full-matrix agglomeration
(``generic_backend``) and the full-scan POI count (``poi_profile``).  The
tests assert that the fast path returns what the oracle does — exactly, or
within the tolerance the test states.
"""
