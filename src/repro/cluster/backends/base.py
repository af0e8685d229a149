"""Backend interface of the agglomerative clustering engine.

A backend turns the pairwise distances of ``n`` observations into the full
merge history (the linkage matrix backing
:class:`repro.cluster.hierarchical.Dendrogram`).  Its entry points take the
square ``(n, n)`` distance matrix — handed over (:meth:`consume_square`) or
borrowed (:meth:`compute_merges_from_square`) — or the ``(n, d)`` feature
matrix (:meth:`compute_merges_from_features`).
All backends must produce merge matrices whose *cuts* agree — the same
partition at every number of clusters and every distance threshold — so the
rest of the system (tuner, labelling, benchmarks) is backend-agnostic and the
fastest supported backend can be picked automatically per linkage.

The one caveat is exact distance *ties* (e.g. duplicate observations): a tie
makes the hierarchy itself ambiguous, and different backends — like any two
valid agglomerative implementations, SciPy's methods included — may break it
differently and cut to different (equally valid) partitions.  On tie-free
distances the cuts are identical.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.cluster.distance import euclidean_distance_matrix
from repro.cluster.linkage import Linkage


class ClusteringBackend(abc.ABC):
    """Strategy computing the merge history of one clustering run.

    Subclasses set :attr:`name` (the registry key used by ``ModelConfig`` and
    the CLI) and implement :meth:`supports` and :meth:`consume_square`.
    """

    #: Registry key of the backend (e.g. ``"nn_chain"``).
    name: str = "abstract"

    #: ``True`` when the backend agglomerates straight from the ``(n, d)``
    #: feature matrix without any pairwise-distance materialisation
    #: (it overrides :meth:`compute_merges_from_features`, and holds no
    #: O(n²) array).
    accepts_features: bool = False

    #: Counters of the most recent run (``merges``, plus backend-specific
    #: keys such as ``chain_steps`` or ``tile_blocks``).  Observability
    #: only — surfaced as trace-span counters, never persisted in results —
    #: and overwritten by every compute call on the same instance.
    last_stats: dict = {}

    @abc.abstractmethod
    def supports(self, linkage: Linkage) -> bool:
        """Return whether this backend can run the given linkage criterion."""

    @abc.abstractmethod
    def consume_square(self, square: np.ndarray, linkage: Linkage) -> np.ndarray:
        """Return the ``(n - 1, 4)`` merge matrix of a square distance matrix.

        Parameters
        ----------
        square:
            Symmetric ``(n, n)`` float64 pairwise distances with finite
            entries.  Ownership transfers: the backend may overwrite it and
            the caller must not read it afterwards, so no second ``(n, n)``
            array is needed.
        linkage:
            Linkage criterion driving the Lance–Williams updates.

        Returns
        -------
        numpy.ndarray
            Rows of ``(cluster_a, cluster_b, distance, new_size)`` following
            the SciPy convention: observations are clusters ``0 … n-1`` and
            the cluster created by row ``m`` has id ``n + m``.
        """

    def compute_merges_from_square(
        self, square: np.ndarray, linkage: Linkage
    ) -> np.ndarray:
        """Like :meth:`consume_square`, but ``square`` is never mutated.

        The backend runs on a copy.
        """
        return self.consume_square(np.array(square, dtype=float), linkage)

    def compute_merges_from_features(
        self, features: np.ndarray, linkage: Linkage
    ) -> np.ndarray:
        """Return the merge matrix for an ``(n, d)`` Euclidean feature matrix.

        The default builds the square distance matrix and hands it over to
        :meth:`consume_square`: one ``(n, n)`` array in all.  Memory-bounded
        backends (:attr:`accepts_features` ``True``) override this to
        compute distances on the fly in blocks, never holding any O(n²)
        form; ``features`` is never mutated.
        """
        arr = np.asarray(features, dtype=float)
        if arr.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {arr.shape}")
        return self.consume_square(euclidean_distance_matrix(arr), linkage)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"
