"""The digest formula of ``repro.utils.fingerprint.fingerprint`` as first written.

It hashed a ``tobytes()`` copy of each array; the fast path hashes the
array's buffer instead, and must give the same digests (bundle manifests
and stage fingerprints depend on them).
"""

from __future__ import annotations

import hashlib
from typing import Any

import numpy as np


def fingerprint(*parts: Any) -> str:
    digest = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            arr = np.ascontiguousarray(part)
            digest.update(b"ndarray:")
            digest.update(str(arr.dtype).encode())
            digest.update(str(arr.shape).encode())
            digest.update(arr.tobytes())
        else:
            digest.update(b"value:")
            digest.update(repr(part).encode())
        digest.update(b";")
    return digest.hexdigest()
