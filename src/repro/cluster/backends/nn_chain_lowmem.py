"""Memory-bounded nearest-neighbor-chain backend: no pairwise matrix, ever.

The ``nn_chain`` backend holds the full O(n²) pairwise distances — the
square matrix is ~20 GB at n = 50k towers and ~80 GB at n = 100k, so its
clustering ceiling is RAM, not CPU.  This backend runs the *same*
nearest-neighbor-chain agglomeration straight from the ``(n, d)`` feature
matrix: every chain step recomputes the tip cluster's distance to all other
clusters on the fly, so peak extra memory is O(n·d + tile²) instead of O(n²).

Cluster–cluster distances come from per-cluster sufficient statistics:

* **Ward** — closed form from centroids and sizes,
  ``d²(A, B) = 2|A||B| / (|A|+|B|) · ‖c_A − c_B‖²`` (exactly what the
  Lance–Williams recurrence computes from squared Euclidean seeds), so a
  chain step is one O(n·d) BLAS matvec against the centroid matrix.
* **single / complete / average** — blocked scans over the tip cluster's
  member rows: point-to-point distances are produced tile by tile with the
  ``x² + y² − 2xy`` kernel (squared norms precomputed once), reduced to a
  per-point min/max/sum, then segment-reduced per cluster.  Exact min, max
  and mean of the pairwise member distances — the quantities the
  Lance–Williams recurrences for these linkages maintain.

The chain walk, tie handling and canonicalisation are shared with the
square-matrix ``nn_chain`` backend, so on tie-free distances the cuts are
identical to ``nn_chain``'s (ties remain ambiguous across all
backends — see :mod:`repro.cluster.backends.base`); only floating-point
noise at the 1e-15 level differs, because distances are recomputed from the
features instead of recurred.

Cost: Ward stays O(n²·d) time like a full-matrix build but with O(n·d)
memory, making 100k-tower clustering possible on a laptop.  The scan-based
linkages pay O(|tip|·n·d) per chain step and suit moderate n; Ward is the
intended criterion at the largest scales.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.backends.base import ClusteringBackend
from repro.cluster.backends.nn_chain import (
    _REDUCIBLE_LINKAGES,
    NNChainBackend,
    chain_merges,
)
from repro.cluster.linkage import Linkage

#: Default edge length of the blocked distance tiles (rows × columns of the
#: pairwise kernel computed at once): 1024² float64 ≈ 8 MB per tile.
DEFAULT_TILE_SIZE = 1024


class NNChainLowMemBackend(ClusteringBackend):
    """On-the-fly nearest-neighbor-chain agglomeration in O(n·d) memory.

    Parameters
    ----------
    tile_size:
        Edge length of the blocked pairwise-distance tiles used by the
        single/complete/average scans (Ward needs no tiles — its chain step
        is a single matvec).  Larger tiles trade memory for fewer BLAS
        calls.  The tile width changes how BLAS blocks the
        ``x² + y² − 2xy`` kernel, so single/complete/average merge heights
        can differ by a few ulps between tile sizes; merge pairs, sizes and
        cuts differ only where two candidate distances lie within that
        rounding.
    """

    name = "nn_chain_lowmem"
    accepts_features = True

    def __init__(self, tile_size: int | None = None) -> None:
        if tile_size is None:
            tile_size = DEFAULT_TILE_SIZE
        if tile_size <= 0:
            raise ValueError(f"tile_size must be positive, got {tile_size}")
        self.tile_size = int(tile_size)

    def supports(self, linkage: Linkage) -> bool:
        return linkage in _REDUCIBLE_LINKAGES

    # -- square entry point ------------------------------------------------
    # Handed an already-materialised distance matrix there is no memory left
    # to save and no feature matrix to scan, so it degrades to the nn_chain
    # engine (identical cuts); the native entry point is
    # compute_merges_from_features.

    def consume_square(self, square: np.ndarray, linkage: Linkage) -> np.ndarray:
        inner = NNChainBackend()
        merges = inner.consume_square(square, linkage)
        self.last_stats = inner.last_stats
        return merges

    # -- native entry point -------------------------------------------------

    def compute_merges_from_features(
        self, features: np.ndarray, linkage: Linkage
    ) -> np.ndarray:
        if not self.supports(linkage):
            raise ValueError(
                f"the nn_chain_lowmem backend requires a reducible linkage, "
                f"got {linkage!r}"
            )
        arr = np.ascontiguousarray(features, dtype=float)
        if arr.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {arr.shape}")
        n = arr.shape[0]
        if n <= 1:
            self.last_stats = {"merges": 0, "chain_steps": 0, "tile_blocks": 0}
            return np.empty((0, 4))

        if linkage is Linkage.WARD:
            state = _WardState(arr)
        else:
            state = _ScanState(arr, linkage, self.tile_size)
        merges, chain_steps = chain_merges(n, state, state.merge, state.squared)
        self.last_stats = {
            "merges": n - 1,
            "chain_steps": chain_steps,
            "tile_blocks": getattr(state, "tile_blocks", 0),
        }
        return merges


class _WardState:
    """Ward sufficient statistics: one centroid and size per cluster slot."""

    squared = True

    def __init__(self, features: np.ndarray) -> None:
        self.centroids = features.copy()
        self.sq_norms = np.einsum("ij,ij->i", features, features)
        self.sizes = np.ones(features.shape[0], dtype=np.int64)
        self.active = np.ones(features.shape[0], dtype=bool)

    def __getitem__(self, x: int) -> np.ndarray:
        """Squared Ward distances from slot ``x`` to every slot (inf-masked)."""
        center = self.centroids[x]
        gram = self.centroids @ center
        gap = self.sq_norms + self.sq_norms[x] - 2.0 * gram
        np.maximum(gap, 0.0, out=gap)
        sizes = self.sizes
        row = (2.0 * sizes[x]) * sizes / (sizes + sizes[x]) * gap
        row[~self.active] = np.inf
        row[x] = np.inf
        return row

    def merge(self, x: int, y: int) -> int:
        size_x, size_y = int(self.sizes[x]), int(self.sizes[y])
        new_size = size_x + size_y
        merged = (
            size_x * self.centroids[x] + size_y * self.centroids[y]
        ) / new_size
        self.centroids[x] = merged
        self.sq_norms[x] = merged @ merged
        self.sizes[x] = new_size
        self.active[y] = False
        return new_size


class _ScanState:
    """Member-row statistics for the distance-based reducible linkages.

    Every original point stays a column of the scans forever; ``point_slot``
    maps it to the slot of the cluster currently containing it, so a
    per-point reduction folds into a per-cluster one with a single segment
    reduce.  Distances are produced in ``tile × tile`` blocks from the
    precomputed squared norms — never more than one tile in memory.
    """

    squared = False

    def __init__(self, features: np.ndarray, linkage: Linkage, tile: int) -> None:
        self.features = features
        self.linkage = linkage
        self.tile = tile
        n = features.shape[0]
        self.sq_norms = np.einsum("ij,ij->i", features, features)
        self.sizes = np.ones(n, dtype=np.int64)
        self.active = np.ones(n, dtype=bool)
        self.point_slot = np.arange(n)
        self.members: list[np.ndarray | None] = [
            np.array([i], dtype=np.int64) for i in range(n)
        ]
        self.tile_blocks = 0

    def _point_aggregate(self, member_rows: np.ndarray) -> np.ndarray:
        """Reduce d(member, point) over members, one value per point."""
        n = self.features.shape[0]
        tile = self.tile
        linkage = self.linkage
        if linkage is Linkage.SINGLE:
            agg = np.full(n, np.inf)
        elif linkage is Linkage.COMPLETE:
            agg = np.full(n, -np.inf)
        else:
            agg = np.zeros(n)
        for r0 in range(0, member_rows.size, tile):
            rows = member_rows[r0 : r0 + tile]
            block_rows = self.features[rows]
            row_norms = self.sq_norms[rows]
            for c0 in range(0, n, tile):
                self.tile_blocks += 1
                c1 = min(c0 + tile, n)
                sq = (
                    row_norms[:, None]
                    + self.sq_norms[c0:c1][None, :]
                    - 2.0 * (block_rows @ self.features[c0:c1].T)
                )
                np.maximum(sq, 0.0, out=sq)
                np.sqrt(sq, out=sq)
                if linkage is Linkage.SINGLE:
                    np.minimum(agg[c0:c1], sq.min(axis=0), out=agg[c0:c1])
                elif linkage is Linkage.COMPLETE:
                    np.maximum(agg[c0:c1], sq.max(axis=0), out=agg[c0:c1])
                else:
                    agg[c0:c1] += sq.sum(axis=0)
        return agg

    def __getitem__(self, x: int) -> np.ndarray:
        """Linkage distances from slot ``x`` to every slot (inf-masked)."""
        n = self.features.shape[0]
        member_rows = self.members[x]
        agg = self._point_aggregate(member_rows)
        if self.linkage is Linkage.SINGLE:
            row = np.full(n, np.inf)
            np.minimum.at(row, self.point_slot, agg)
        elif self.linkage is Linkage.COMPLETE:
            row = np.full(n, -np.inf)
            np.maximum.at(row, self.point_slot, agg)
        else:
            # Retired slots keep a stale (positive) size, so the division is
            # always defined; their garbage means are inf-masked below.
            sums = np.bincount(self.point_slot, weights=agg, minlength=n)
            row = sums / (member_rows.size * self.sizes)
        row[~self.active] = np.inf
        row[x] = np.inf
        return row

    def merge(self, x: int, y: int) -> int:
        members_y = self.members[y]
        self.members[x] = np.concatenate((self.members[x], members_y))
        self.members[y] = None
        self.point_slot[members_y] = x
        new_size = int(self.sizes[x]) + int(self.sizes[y])
        self.sizes[x] = new_size
        self.active[y] = False
        return new_size
