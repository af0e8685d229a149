"""Nearest-neighbor-chain backend: O(n²) agglomeration on the square matrix.

The nearest-neighbor chain algorithm exploits the *reducibility* of the
single, complete, average and Ward linkage criteria: when two clusters are
mutual nearest neighbours they can be merged immediately, because no later
merge can ever bring another cluster closer to either of them.  The algorithm
therefore walks a chain ``a → nn(a) → nn(nn(a)) → …`` until it hits a
reciprocal pair, merges it, and resumes from the truncated chain.  Every
chain step is an O(n) scan of one row of the distance matrix, and the total
number of chain steps over a full run is O(n), giving O(n²) time overall —
no per-merge full-matrix argmin scans.

The backend owns the square ``(n, n)`` matrix it is handed and
agglomerates on it in place: a slot's distances are its row, read where it
lies; a merge writes the Lance–Williams distances into the merged slot's row
and column, and +inf over the retired slot's column.  With +inf on the
diagonal too, no scan needs a mask, and no second ``(n, n)`` or condensed
array exists.  That sentinel makes finite distances a precondition, which
:meth:`repro.cluster.hierarchical.AgglomerativeClustering.fit` checks before
any backend runs.

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
from repro.cluster.linkage import Linkage, lance_williams_update

#: Criteria for which the reducibility property (and hence the chain
#: algorithm's correctness) holds.
_REDUCIBLE_LINKAGES = frozenset(
    {Linkage.SINGLE, Linkage.COMPLETE, Linkage.AVERAGE, Linkage.WARD}
)


class NNChainBackend(ClusteringBackend):
    """O(n²) nearest-neighbor-chain agglomeration for reducible linkages.

    Peak memory is the ``(n, n)`` matrix it consumes plus O(n) buffers.
    """

    name = "nn_chain"

    def supports(self, linkage: Linkage) -> bool:
        return linkage in _REDUCIBLE_LINKAGES

    def consume_square(self, square: np.ndarray, linkage: Linkage) -> np.ndarray:
        """Run the chain on ``square`` (owned, overwritten in place)."""
        if not self.supports(linkage):
            raise ValueError(
                f"the nn_chain backend requires a reducible linkage, got {linkage!r}"
            )
        work = square
        n = work.shape[0]
        if n <= 1:
            self.last_stats = {"merges": 0, "chain_steps": 0}
            return np.empty((0, 4))

        use_squared = linkage is Linkage.WARD
        if use_squared:
            work **= 2
        np.fill_diagonal(work, np.inf)

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
        chain_steps = 0

        for merge_index in range(n - 1):
            if chain_len == 0:
                chain[0] = int(np.argmax(active))
                chain_len = 1

            # Grow the chain until the tip and its nearest neighbour are a
            # reciprocal pair.  Preferring the chain's previous element on
            # ties keeps the walk from oscillating between equidistant
            # clusters and guarantees termination.  The diagonal and the
            # retired slots' columns read +inf, so the row needs no mask.
            while True:
                chain_steps += 1
                x = int(chain[chain_len - 1])
                row = work[x]
                if chain_len > 1:
                    y = int(chain[chain_len - 2])
                    d_xy = float(row[y])
                else:
                    y = -1
                    d_xy = np.inf
                best = int(row.argmin())
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

            active[x] = active[y] = False
            others = np.flatnonzero(active)
            active[x] = True
            if others.size:
                updated = lance_williams_update(
                    linkage,
                    row[others],
                    work[y, others],
                    d_xy,
                    size_x,
                    size_y,
                    sizes[others],
                )
                row[others] = updated
                work[others, x] = updated
            # Retire slot y: no live row may pick it again.  Its own row is
            # never read after this merge.
            work[:, y] = np.inf
            sizes[x] = new_size

        self.last_stats = {"merges": n - 1, "chain_steps": chain_steps}
        return _canonicalize(slot_a, slot_b, heights, merged_sizes, n)


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
