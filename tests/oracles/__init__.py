"""Scalar reference implementations kept only as equivalence oracles.

Each module here is the straightforward version of a fast path in ``src``;
the tests assert that the fast path returns exactly what the oracle does.
"""
