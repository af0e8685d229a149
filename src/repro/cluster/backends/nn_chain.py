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
lies.  A merge of ``x`` and ``y`` rewrites row ``x`` from rows ``x`` and
``y`` over all ``n`` entries, copies it into column ``x`` and writes +inf
over column ``y``, so no merge gathers or scatters by index.  With +inf on
the diagonal too, no scan needs a mask, and no second ``(n, n)`` or
condensed array exists.  That sentinel makes finite distances a
precondition, which
:meth:`repro.cluster.hierarchical.AgglomerativeClustering.fit` checks before
any backend runs.

Merges are discovered in chain order, which is generally *not* sorted by
merge distance, so the raw merge list is canonicalised afterwards by a
stable sort on distance (Müllner, arXiv:1109.2378).  For reducible linkages
a merge that consumes the product of an earlier merge happens at a
distance no smaller than that earlier merge (rounding on tied distances can
undercut it by an ulp; see :func:`_canonicalize`), and every cut of the
canonical dendrogram agrees with the full-matrix Lance–Williams loop (the
test oracle) whenever the pairwise distances are tie-free (exact ties make
the hierarchy ambiguous and may be broken differently — see
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

        squared = linkage is Linkage.WARD
        if squared:
            work **= 2
        np.fill_diagonal(work, np.inf)
        sizes = np.ones(n, dtype=np.int64)
        scratch = np.empty(n)

        def merge(x: int, y: int) -> int:
            # The merged cluster's distances overwrite row x and, by
            # symmetry, column x; slot y retires behind a column of +inf.
            lance_williams_update(linkage, work, x, y, sizes, scratch)
            work[:, x] = work[x]
            work[:, y] = np.inf
            sizes[x] += sizes[y]
            return int(sizes[x])

        merges, chain_steps = chain_merges(n, work, merge, squared)
        self.last_stats = {"merges": n - 1, "chain_steps": chain_steps}
        return merges


def chain_merges(n: int, rows, merge, squared: bool) -> tuple[np.ndarray, int]:
    """Agglomerate ``n`` observations along nearest-neighbour chains.

    ``rows[x]`` is slot ``x``'s row of distances to every slot, +inf for
    itself and for retired slots (squared distances when ``squared``);
    ``merge(x, y)`` merges slot ``y`` into slot ``x``, retires ``y`` and
    returns the merged size.  Returns the canonical merge table and the
    number of chain steps.
    """
    active = np.ones(n, dtype=bool)
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
        # reciprocal pair.  Preferring the chain's previous element on ties
        # keeps the walk from oscillating between equidistant clusters and
        # guarantees termination.
        while True:
            chain_steps += 1
            x = int(chain[chain_len - 1])
            row = rows[x]
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
        slot_a[merge_index] = x
        slot_b[merge_index] = y
        heights[merge_index] = float(np.sqrt(max(d_xy, 0.0))) if squared else d_xy
        merged_sizes[merge_index] = merge(x, y)
        active[y] = False

    return _canonicalize(slot_a, slot_b, heights, merged_sizes, n), chain_steps


def _canonicalize(
    slot_a: np.ndarray,
    slot_b: np.ndarray,
    heights: np.ndarray,
    merged_sizes: np.ndarray,
    num_observations: int,
) -> np.ndarray:
    """Sort chain-order merges by distance and re-assign canonical ids.

    Sorted merge ``m`` creates cluster ``n + m``, SciPy's convention.  Each
    slot a merge joins holds the cluster built by the last earlier merge
    that slot survived, or its own observation.  Rounding on tied distances
    can record a merge below one that built its inputs; it is lifted to
    that height first, so no merge sorts before its inputs.
    """
    n = num_observations
    # Merges grouped by surviving slot, in chain order: each one's
    # predecessor in its group built its slot-a input, and a group's last
    # merge built what that slot held when it retired.
    by_slot = np.argsort(slot_a, kind="stable")
    grouped = slot_a[by_slot]
    same = grouped[1:] == grouped[:-1]
    built_a = np.full(n - 1, -1)
    built_a[by_slot[1:]] = np.where(same, by_slot[:-1], -1)
    last = np.full(n, -1)
    ends = np.append(~same, True)
    last[grouped[ends]] = by_slot[ends]
    built_b = last[slot_b]

    keys = np.append(heights, -np.inf)  # index -1, "built by no merge"
    while True:
        below = np.maximum(keys[built_a], keys[built_b])
        lifted = below > keys[:-1]
        if not lifted.any():
            break
        keys[:-1][lifted] = below[lifted]

    order = np.argsort(keys[:-1], kind="stable")
    position = np.empty(n - 1, dtype=np.int64)
    position[order] = np.arange(n - 1)
    id_a = np.where(built_a < 0, slot_a, n + position[built_a])
    id_b = np.where(built_b < 0, slot_b, n + position[built_b])
    return np.column_stack(
        (np.minimum(id_a, id_b), np.maximum(id_a, id_b), keys[:-1], merged_sizes)
    )[order]
