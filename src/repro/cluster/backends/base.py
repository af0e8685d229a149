"""Backend interface of the agglomerative clustering engine.

A backend turns a condensed pairwise-distance array into the full merge
history (the linkage matrix backing :class:`repro.cluster.hierarchical.Dendrogram`).
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

from repro.cluster.distance import condensed_from_square, euclidean_distance_matrix
from repro.cluster.linkage import Linkage


class ClusteringBackend(abc.ABC):
    """Strategy computing the merge history of one clustering run.

    Subclasses set :attr:`name` (the registry key used by ``ModelConfig`` and
    the CLI) and implement :meth:`supports` and :meth:`compute_merges`.
    """

    #: Registry key of the backend (e.g. ``"nn_chain"``).
    name: str = "abstract"

    #: ``True`` when the backend can agglomerate straight from the ``(n, d)``
    #: feature matrix without any pairwise-distance materialisation
    #: (:meth:`compute_merges_from_features` is then its native entry point,
    #: and callers holding features should prefer it — no O(n²) allocation).
    accepts_features: bool = False

    #: ``True`` when the backend's working representation is the condensed
    #: array itself.  Callers that built a dense matrix only as a stepping
    #: stone can then condense it, free the square form, and hand the
    #: condensed array over via :meth:`consume_condensed` — peak memory
    #: drops from 2× the square matrix to 1.5× transiently and 0.5× during
    #: the agglomeration.
    prefers_condensed: bool = False

    #: Counters of the most recent run (``merges``, plus backend-specific
    #: keys such as ``chain_steps`` or ``tile_blocks``).  Observability
    #: only — surfaced as trace-span counters, never persisted in results —
    #: and overwritten by every compute call on the same instance.
    last_stats: dict = {}

    @abc.abstractmethod
    def supports(self, linkage: Linkage) -> bool:
        """Return whether this backend can run the given linkage criterion."""

    @abc.abstractmethod
    def compute_merges(
        self,
        condensed: np.ndarray,
        num_observations: int,
        linkage: Linkage,
    ) -> np.ndarray:
        """Return the ``(n - 1, 4)`` merge matrix for ``condensed`` distances.

        Parameters
        ----------
        condensed:
            Upper-triangular pairwise distances in scipy's condensed layout
            (``n * (n - 1) / 2`` entries); never mutated.
        num_observations:
            Number of original observations ``n``.
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
        """Return the merge matrix for a square ``(n, n)`` distance matrix.

        The default condenses and delegates to :meth:`consume_condensed`
        (the freshly condensed array is owned, so backends may run on it in
        place without another copy); backends whose working representation
        *is* the square matrix override this to skip the round trip.
        ``square`` is never mutated.
        """
        return self.consume_condensed(
            condensed_from_square(square), square.shape[0], linkage
        )

    def consume_condensed(
        self,
        condensed: np.ndarray,
        num_observations: int,
        linkage: Linkage,
    ) -> np.ndarray:
        """Like :meth:`compute_merges`, but ``condensed`` ownership transfers.

        The caller promises not to reuse ``condensed`` afterwards, so
        backends whose working form is the condensed array may mutate it in
        place instead of taking a defensive copy.  The default delegates to
        :meth:`compute_merges` (which never mutates its input).
        """
        return self.compute_merges(condensed, num_observations, linkage)

    def compute_merges_from_features(
        self, features: np.ndarray, linkage: Linkage
    ) -> np.ndarray:
        """Return the merge matrix for an ``(n, d)`` Euclidean feature matrix.

        The default materialises the dense distance matrix and delegates to
        :meth:`compute_merges_from_square`.  Memory-bounded backends
        (:attr:`accepts_features` ``True``) override this to compute
        distances on the fly in blocks, never holding any O(n²) form;
        ``features`` is never mutated.
        """
        arr = np.asarray(features, dtype=float)
        if arr.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {arr.shape}")
        return self.compute_merges_from_square(
            euclidean_distance_matrix(arr), linkage
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"
