"""Nearest-neighbor-chain backend: O(n²) agglomeration on a condensed array.

The nearest-neighbor chain algorithm exploits the *reducibility* of the
single, complete, average and Ward linkage criteria: when two clusters are
mutual nearest neighbours they can be merged immediately, because no later
merge can ever bring another cluster closer to either of them.  The algorithm
therefore walks a chain ``a → nn(a) → nn(nn(a)) → …`` until it hits a
reciprocal pair, merges it, and resumes from the truncated chain.  Every
chain step is an O(n) scan of one condensed-distance row, and the total
number of chain steps over a full run is O(n), giving O(n²) time overall —
no per-merge full-matrix argmin scans.

Merges are discovered in chain order, which is generally *not* sorted by
merge distance, so the raw merge list is canonicalised afterwards: rows are
stably sorted by distance and cluster ids are re-assigned with a union-find
pass (the same post-processing SciPy applies to its ``nn_chain`` output).
For reducible linkages a merge that consumes the product of an earlier merge
always happens at a distance no smaller than that earlier merge, so a stable
sort can never place a child merge before the merge that created its inputs,
and every cut of the canonical dendrogram agrees with the full-matrix
Lance–Williams loop (the test oracle) whenever the pairwise distances are
tie-free (exact ties make the
hierarchy ambiguous and may be broken differently — see
:mod:`repro.cluster.backends.base`).
"""

from __future__ import annotations

import numpy as np

from repro.cluster.backends.base import ClusteringBackend
from repro.cluster.distance import condensed_indices
from repro.cluster.linkage import Linkage, lance_williams_update

#: Criteria for which the reducibility property (and hence the chain
#: algorithm's correctness) holds.
_REDUCIBLE_LINKAGES = frozenset(
    {Linkage.SINGLE, Linkage.COMPLETE, Linkage.AVERAGE, Linkage.WARD}
)


class NNChainBackend(ClusteringBackend):
    """O(n²) nearest-neighbor-chain agglomeration for reducible linkages."""

    name = "nn_chain"
    prefers_condensed = True

    def supports(self, linkage: Linkage) -> bool:
        return linkage in _REDUCIBLE_LINKAGES

    def compute_merges(
        self,
        condensed: np.ndarray,
        num_observations: int,
        linkage: Linkage,
    ) -> np.ndarray:
        work = np.asarray(condensed, dtype=float).ravel().copy()
        return self._agglomerate(work, num_observations, linkage)

    def consume_condensed(
        self,
        condensed: np.ndarray,
        num_observations: int,
        linkage: Linkage,
    ) -> np.ndarray:
        """In-place variant: ``condensed`` is owned by the backend and
        mutated instead of copied, halving the backend's working memory.

        ``asarray(...).ravel()`` either aliases the transferred buffer
        (mutating it is exactly the ownership contract) or made a fresh
        dtype/contiguity conversion that nobody else references.
        """
        work = np.asarray(condensed, dtype=float).ravel()
        return self._agglomerate(work, num_observations, linkage)

    def _agglomerate(
        self, work: np.ndarray, num_observations: int, linkage: Linkage
    ) -> np.ndarray:
        """Run the chain on ``work`` (owned, mutated in place)."""
        if not self.supports(linkage):
            raise ValueError(
                f"the nn_chain backend requires a reducible linkage, got {linkage!r}"
            )
        n = num_observations
        if n <= 1:
            self.last_stats = {"merges": 0, "chain_steps": 0}
            return np.empty((0, 4))

        use_squared = linkage is Linkage.WARD
        if use_squared:
            work **= 2

        active = np.ones(n, dtype=bool)
        sizes = np.ones(n, dtype=np.int64)
        chain = np.empty(n, dtype=np.int64)
        chain_len = 0

        # Raw merge log in execution (chain) order; slots are observation
        # indices standing for the cluster currently stored in that slot.
        slot_a = np.empty(n - 1, dtype=np.int64)
        slot_b = np.empty(n - 1, dtype=np.int64)
        heights = np.empty(n - 1)
        merged_sizes = np.empty(n - 1, dtype=np.int64)
        slots = np.arange(n)
        chain_steps = 0

        for merge_index in range(n - 1):
            if chain_len == 0:
                chain[0] = int(np.argmax(active))
                chain_len = 1

            # Grow the chain until the tip and its nearest neighbour are a
            # reciprocal pair.  Preferring the chain's previous element on
            # ties keeps the walk from oscillating between equidistant
            # clusters and guarantees termination.
            while True:
                chain_steps += 1
                x = int(chain[chain_len - 1])
                row = self._condensed_row(work, x, n)
                row[x] = np.inf
                row[~active] = np.inf
                if chain_len > 1:
                    y = int(chain[chain_len - 2])
                    d_xy = float(row[y])
                else:
                    y = -1
                    d_xy = np.inf
                best = int(np.argmin(row))
                if float(row[best]) < d_xy:
                    y = best
                    d_xy = float(row[best])
                if chain_len > 1 and y == int(chain[chain_len - 2]):
                    break
                chain[chain_len] = y
                chain_len += 1

            # Merge the reciprocal pair (x, y); the merged cluster stays in
            # slot x, slot y retires.
            chain_len -= 2
            size_x, size_y = int(sizes[x]), int(sizes[y])
            new_size = size_x + size_y
            slot_a[merge_index] = x
            slot_b[merge_index] = y
            heights[merge_index] = (
                float(np.sqrt(max(d_xy, 0.0))) if use_squared else d_xy
            )
            merged_sizes[merge_index] = new_size

            others = slots[active]
            others = others[(others != x) & (others != y)]
            if others.size:
                idx_x = condensed_indices(x, others, n)
                updated = lance_williams_update(
                    linkage,
                    work[idx_x],
                    work[condensed_indices(y, others, n)],
                    d_xy,
                    size_x,
                    size_y,
                    sizes[others],
                )
                work[idx_x] = updated

            active[y] = False
            sizes[x] = new_size

        self.last_stats = {"merges": n - 1, "chain_steps": chain_steps}
        return _canonicalize(slot_a, slot_b, heights, merged_sizes, n)

    @staticmethod
    def _condensed_row(work: np.ndarray, x: int, n: int) -> np.ndarray:
        """Return ``d(x, ·)`` as a length-``n`` vector gathered from ``work``."""
        row = np.empty(n)
        if x > 0:
            k = np.arange(x)
            row[:x] = work[k * (2 * n - k - 1) // 2 + (x - k - 1)]
        row[x] = np.inf
        if x < n - 1:
            start = x * (2 * n - x - 1) // 2
            row[x + 1 :] = work[start : start + (n - x - 1)]
        return row


def _canonicalize(
    slot_a: np.ndarray,
    slot_b: np.ndarray,
    heights: np.ndarray,
    merged_sizes: np.ndarray,
    num_observations: int,
) -> np.ndarray:
    """Sort chain-order merges by distance and re-assign canonical ids.

    After the stable sort, a union-find pass over observation slots converts
    each row's slot indices into the id of the cluster currently containing
    that observation, numbering new clusters ``n + m`` in sorted order — the
    convention of SciPy's linkage matrices.
    """
    n = num_observations
    order = np.argsort(heights, kind="stable")

    parent = np.arange(n)
    cluster_id = np.arange(n)

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = int(parent[root])
        while parent[x] != root:
            parent[x], x = root, int(parent[x])
        return root

    merges = np.empty((n - 1, 4))
    for m, raw_index in enumerate(order):
        root_a = find(int(slot_a[raw_index]))
        root_b = find(int(slot_b[raw_index]))
        id_a, id_b = int(cluster_id[root_a]), int(cluster_id[root_b])
        if id_a > id_b:
            id_a, id_b = id_b, id_a
        merges[m] = (id_a, id_b, heights[raw_index], merged_sizes[raw_index])
        parent[root_b] = root_a
        cluster_id[root_a] = n + m
    return merges
