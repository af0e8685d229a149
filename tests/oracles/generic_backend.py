"""Full-matrix Lance–Williams agglomeration: the oracle for the nn-chain backends.

This is the straightforward textbook implementation: keep the dense ``(n, n)``
distance matrix, find the global closest active pair with a full argmin scan
on every merge, and update the merged row with the Lance–Williams recurrence.
The per-merge scan makes it O(n³)-ish overall, but it places no restriction
on the linkage criterion.  Pass an instance as ``backend=``: the cuts of
``nn_chain`` and ``nn_chain_lowmem`` must equal its cuts on tie-free
distances.
"""

from __future__ import annotations

import numpy as np

from oracles.nn_chain import lance_williams_update
from repro.cluster.backends.base import ClusteringBackend
from repro.cluster.linkage import Linkage


class GenericBackend(ClusteringBackend):
    """Full-matrix agglomeration with per-merge global argmin scans."""

    name = "generic"

    def supports(self, linkage: Linkage) -> bool:
        return True

    def consume_square(self, work: np.ndarray, linkage: Linkage) -> np.ndarray:
        """Run the full-matrix loop on ``work`` (owned, mutated in place)."""
        n = work.shape[0]
        self.last_stats = {"merges": max(n - 1, 0)}
        if n <= 1:
            return np.empty((0, 4))

        use_squared = linkage is Linkage.WARD
        if use_squared:
            work **= 2
        np.fill_diagonal(work, np.inf)

        active = np.ones(n, dtype=bool)
        sizes = np.ones(n, dtype=int)
        cluster_ids = np.arange(n)
        merges = np.zeros((n - 1, 4))

        for merge_index in range(n - 1):
            # Find the closest active pair.
            masked = np.where(active[:, None] & active[None, :], work, np.inf)
            flat = int(np.argmin(masked))
            i, j = flat // n, flat % n
            if i > j:
                i, j = j, i
            merge_distance = masked[i, j]
            if use_squared:
                merge_distance = float(np.sqrt(max(merge_distance, 0.0)))
            else:
                merge_distance = float(merge_distance)

            size_i, size_j = int(sizes[i]), int(sizes[j])
            new_size = size_i + size_j
            merges[merge_index] = (cluster_ids[i], cluster_ids[j], merge_distance, new_size)

            # Lance–Williams update of distances from the merged cluster
            # (stored in slot i) to every other active cluster.
            others = np.nonzero(active)[0]
            others = others[(others != i) & (others != j)]
            if others.size:
                updated = lance_williams_update(
                    linkage,
                    work[i, others],
                    work[j, others],
                    float(work[i, j]),
                    size_i,
                    size_j,
                    sizes[others],
                )
                work[i, others] = updated
                work[others, i] = updated

            active[j] = False
            work[j, :] = np.inf
            work[:, j] = np.inf
            sizes[i] = new_size
            cluster_ids[i] = n + merge_index

        return merges
