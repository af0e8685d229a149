"""Clustering backends: interchangeable merge-history engines.

The pattern identifier's agglomeration is a strategy behind a small
interface (:class:`~repro.cluster.backends.base.ClusteringBackend`):

* ``nn_chain`` — nearest-neighbor chain on the square distance matrix,
  agglomerated in place (one ``(n, n)`` array); O(n²) time, restricted to the reducible linkages (single, complete,
  average, Ward — every :class:`~repro.cluster.linkage.Linkage`).  Its cuts
  equal those of the full-matrix Lance–Williams loop kept as the test
  oracle in ``tests/oracles/generic_backend.py`` on tie-free distances
  (exact ties are broken differently, as any two valid agglomerative
  implementations may).
* ``nn_chain_lowmem`` — the same chain agglomeration computed on the fly
  from the ``(n, d)`` feature matrix in BLAS tiles, never holding any
  pairwise matrix: O(n·d + tile²) peak extra memory instead of O(n²), the
  backend for 50k–100k+ towers where the square matrix alone is 20–80 GB.
  Restricted to the reducible linkages like ``nn_chain``.
* ``auto`` — picks ``nn_chain``, upgrading to ``nn_chain_lowmem`` when the
  observation count is known to be at or above
  :data:`AUTO_LOWMEM_THRESHOLD` (where O(n²) memory stops being viable).
  This is the default everywhere.
"""

from __future__ import annotations

from repro.cluster.backends.base import ClusteringBackend
from repro.cluster.backends.nn_chain import NNChainBackend
from repro.cluster.backends.nn_chain_lowmem import (
    DEFAULT_TILE_SIZE,
    NNChainLowMemBackend,
)
from repro.cluster.linkage import Linkage

#: Sentinel name selecting the fastest backend supporting the linkage.
AUTO_BACKEND = "auto"

#: Observation count from which ``auto`` switches to the memory-bounded
#: backend: at 20k towers ``nn_chain``'s square matrix is ~3.2 GB, so the
#: O(n²) engine starts to be RAM-bound.
AUTO_LOWMEM_THRESHOLD = 20_000

_REGISTRY: dict[str, type[ClusteringBackend]] = {
    NNChainBackend.name: NNChainBackend,
    NNChainLowMemBackend.name: NNChainLowMemBackend,
}

#: Names of the concrete backends.
BACKEND_NAMES: tuple[str, ...] = tuple(sorted(_REGISTRY))

#: Every valid ``backend=`` string, including ``"auto"``.
BACKEND_CHOICES: tuple[str, ...] = (AUTO_BACKEND, *BACKEND_NAMES)


def get_backend(name: str, *, tile_size: int | None = None) -> ClusteringBackend:
    """Return a new instance of the backend registered under ``name``.

    ``tile_size`` configures the blocked-scan tile of backends that take
    one (currently ``nn_chain_lowmem``) and is ignored by the others.
    """
    try:
        backend_cls = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown clustering backend {name!r}; choose from {sorted(_REGISTRY)}"
        ) from None
    if tile_size is not None and issubclass(backend_cls, NNChainLowMemBackend):
        return backend_cls(tile_size=tile_size)
    return backend_cls()


def resolve_backend(
    spec: str | ClusteringBackend,
    linkage: Linkage,
    *,
    num_observations: int | None = None,
    tile_size: int | None = None,
) -> ClusteringBackend:
    """Resolve a backend spec (name, ``"auto"`` or instance) for ``linkage``.

    ``"auto"`` is ``nn_chain``, or the memory-bounded ``nn_chain_lowmem``
    engine when ``num_observations`` is known to be at or above
    :data:`AUTO_LOWMEM_THRESHOLD`.

    Raises
    ------
    ValueError
        If the name is unknown, or the backend does not support the linkage.
    """
    if isinstance(spec, ClusteringBackend):
        backend = spec
    elif spec == AUTO_BACKEND:
        if num_observations is not None and num_observations >= AUTO_LOWMEM_THRESHOLD:
            backend = NNChainLowMemBackend(tile_size=tile_size)
        else:
            backend = NNChainBackend()
    else:
        backend = get_backend(spec, tile_size=tile_size)
    if not backend.supports(linkage):
        raise ValueError(
            f"backend {backend.name!r} does not support linkage "
            f"{getattr(linkage, 'value', linkage)!r}"
        )
    return backend


__all__ = [
    "AUTO_BACKEND",
    "AUTO_LOWMEM_THRESHOLD",
    "BACKEND_CHOICES",
    "BACKEND_NAMES",
    "DEFAULT_TILE_SIZE",
    "ClusteringBackend",
    "NNChainBackend",
    "NNChainLowMemBackend",
    "get_backend",
    "resolve_backend",
]
