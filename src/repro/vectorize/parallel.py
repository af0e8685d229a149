"""Former home of :func:`repro.ingest.dedup.clean_chunk`, re-exported.

The end-to-end benchmark (``benchmarks/e2e/offline.py``) still imports
``clean_chunk`` from here; this module goes with that import.
"""

from repro.ingest.dedup import clean_chunk

__all__ = ["clean_chunk"]
