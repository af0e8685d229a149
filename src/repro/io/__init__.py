"""Persistence and serving plane of the traffic-pattern model.

* :mod:`repro.io.persist` — versioned on-disk model bundles (NPZ arrays +
  JSON manifest) with bit-for-bit :func:`~repro.io.persist.save_model` /
  :func:`~repro.io.persist.load_model` round-trips, and
  :func:`~repro.io.persist.read_serving_arrays`, which reads only what a
  server answers from;
* :mod:`repro.io.server` — the in-process :class:`~repro.io.server.ModelServer`
  answering decompose / region / summary / pattern queries from the few
  per-tower and per-cluster arrays of a fitted or persisted model, without
  re-running the fit: it decomposes the whole city once when built, so every
  query is a row lookup;
* :mod:`repro.io.service` — the networked serving plane: an asyncio
  HTTP/JSON front-end (:class:`~repro.io.service.ModelService`) answering
  each query inline from the active server, with atomic hot-swap of new
  bundles.
"""

from repro.io.persist import (
    ARRAYS_NAME,
    MANIFEST_NAME,
    SCHEMA_VERSION,
    LoadedModel,
    PersistError,
    load_model,
    read_manifest,
    save_model,
)
from repro.io.server import ModelServer, TowerPattern
from repro.io.service import (
    ModelService,
    ServiceError,
    ServiceHandle,
    run_service,
    start_service,
)

__all__ = [
    "ARRAYS_NAME",
    "MANIFEST_NAME",
    "SCHEMA_VERSION",
    "LoadedModel",
    "ModelServer",
    "ModelService",
    "PersistError",
    "ServiceError",
    "ServiceHandle",
    "TowerPattern",
    "load_model",
    "read_manifest",
    "run_service",
    "save_model",
    "start_service",
]
