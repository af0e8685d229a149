"""The gather-and-scatter nearest-neighbour chain: the oracle for ``nn_chain``.

This is the square-matrix chain as it ran before merges updated whole rows:
each merge gathers the live slots (``np.flatnonzero(active)``), evaluates the
full Lance–Williams recurrence ``α_i d_ik + α_j d_jk + β d_ij + γ |d_ik −
d_jk|`` on them and scatters the result into the merged slot's row and
column; the chain-order merge log is then canonicalised by a stable height
sort and a Python union-find.  ``lift_heights`` is the sequential form of the
one step ``repro.cluster.backends.nn_chain._canonicalize`` adds: a merge that
rounding left below a merge that built one of its inputs takes that height.
``NNChainBackend`` must return ``canonicalize`` of the lifted log byte for
byte, with the same ``chain_steps`` count.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.linkage import Linkage, lance_williams_coefficients


def lance_williams_update(
    linkage: Linkage,
    d_ik: np.ndarray,
    d_jk: np.ndarray,
    d_ij: float,
    size_i: int,
    size_j: int,
    sizes_k: np.ndarray,
) -> np.ndarray:
    """Return the updated distances ``d(i∪j, k)`` for a batch of clusters ``k``.

    For Ward linkage all distances (``d_ik``, ``d_jk``, ``d_ij`` and the
    return value) are *squared* Euclidean distances; ``sizes_k`` holds the
    size of each third cluster and is only consulted by Ward.
    """
    if linkage is Linkage.WARD:
        total = size_i + size_j + sizes_k
        return (
            (size_i + sizes_k) / total * d_ik
            + (size_j + sizes_k) / total * d_jk
            - sizes_k / total * d_ij
        )
    alpha_i, alpha_j, beta, gamma = lance_williams_coefficients(
        linkage, size_i, size_j, 1
    )
    return alpha_i * d_ik + alpha_j * d_jk + beta * d_ij + gamma * np.abs(d_ik - d_jk)


def chain_log(work: np.ndarray, linkage: Linkage):
    """Run the chain on ``work`` (owned, overwritten in place).

    Returns ``(slot_a, slot_b, heights, merged_sizes, chain_steps)``: the raw
    merge log in chain order, whose slots are observation indices standing
    for the cluster currently stored in that slot (``slot_a`` survives).
    """
    n = work.shape[0]
    use_squared = linkage is Linkage.WARD
    if use_squared:
        work **= 2
    np.fill_diagonal(work, np.inf)

    active = np.ones(n, dtype=bool)
    sizes = np.ones(n, dtype=np.int64)
    chain = np.empty(n, dtype=np.int64)
    chain_len = 0

    slot_a = np.empty(n - 1, dtype=np.int64)
    slot_b = np.empty(n - 1, dtype=np.int64)
    heights = np.empty(n - 1)
    merged_sizes = np.empty(n - 1, dtype=np.int64)
    chain_steps = 0

    for merge_index in range(n - 1):
        if chain_len == 0:
            chain[0] = int(np.argmax(active))
            chain_len = 1

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
        work[:, y] = np.inf
        sizes[x] = new_size

    return slot_a, slot_b, heights, merged_sizes, chain_steps


def canonicalize(
    slot_a: np.ndarray,
    slot_b: np.ndarray,
    heights: np.ndarray,
    merged_sizes: np.ndarray,
    num_observations: int,
) -> np.ndarray:
    """Sort chain-order merges by distance and re-assign ids by union-find."""
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


def lift_heights(
    slot_a: np.ndarray, slot_b: np.ndarray, heights: np.ndarray, num_observations: int
) -> np.ndarray:
    """Raise each merge to the height of the merges that built its inputs.

    Walks the chain-order log keeping the height of the cluster each slot
    holds; a merge recorded below one of them (rounding on tied distances)
    takes that height, so a stable sort never puts it first.  Every other
    height, −0.0 included, is returned unchanged.
    """
    top = [-np.inf] * num_observations
    lifted = heights.copy()
    for r in range(heights.size):
        a, b = int(slot_a[r]), int(slot_b[r])
        below = max(top[a], top[b])
        if below > lifted[r]:
            lifted[r] = below
        top[a] = lifted[r]
    return lifted

