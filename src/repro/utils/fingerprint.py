"""Content fingerprints of stage inputs and persisted artifacts.

The staged pipeline records, for every stage it runs, a SHA-256 digest of the
stage's inputs (arrays plus the configuration values the stage reads).  The
digests are persisted in a model bundle's manifest, so a later resumable run
— an incremental :meth:`~repro.core.model.TrafficPatternModel.update`, for
example — can compare the digest of a stage's *current* inputs against the
recorded one and republish the cached outputs instead of recomputing them.

Large arrays are hashed as rarely as their use needs.  A fit hashes its
towers × slots grid once, inside the vectorize stage's span
(:meth:`~repro.core.pipeline.PipelineContext.traffic_digest`); the vectorize
and spectral fingerprints digest that grid digest, and the cluster and tune
fingerprints digest the vectorize fingerprint, so the normalised vectors
are never hashed for a fingerprint.  The label and decompose stages hash
their own inputs, which are per-tower or per-cluster arrays.

The same helper fingerprints the arrays written into a bundle, giving the
loader a cheap integrity check (a truncated or bit-flipped ``arrays.npz``
fails loudly instead of silently feeding garbage to queries).  A save hashes
the normalised vectors and every small array; it hashes the grid again only
if the grid could have changed since the fit hashed it
(:meth:`~repro.synth.traffic.TowerTrafficMatrix.digest`).  A load checks
every array it reads against its digest.
"""

from __future__ import annotations

import hashlib
from typing import Any

import numpy as np


def fingerprint(*parts: Any) -> str:
    """Return a SHA-256 hex digest of heterogeneous input parts.

    NumPy arrays are hashed over dtype, shape and raw bytes (C-contiguous
    layout), so two arrays fingerprint equally iff they are bit-for-bit
    identical with the same shape and dtype.  The bytes are read from the
    array's own buffer, through a 1-D view, rather than from a ``tobytes()``
    copy: a contiguous grid is hashed without an array-sized temporary.
    Everything else is hashed over its ``repr``, which covers the
    scalar/enum/tuple configuration values stages read; ``None`` parts are
    hashed too (absence is information).
    """
    digest = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            arr = np.ascontiguousarray(part)
            digest.update(b"ndarray:")
            digest.update(str(arr.dtype).encode())
            digest.update(str(arr.shape).encode())
            digest.update(arr.reshape(-1))
        else:
            digest.update(b"value:")
            digest.update(repr(part).encode())
        digest.update(b";")
    return digest.hexdigest()


def fingerprint_array(array: np.ndarray) -> str:
    """Return the content digest of one array (bundle integrity checks)."""
    return fingerprint(array)
