"""The traffic vectorizer: records or matrices → normalised traffic vectors.

This is the first element of the paper's three-element system (traffic
vectorizer → pattern identifier → metric tuner).  The vectorizer takes
columnar record batches (one, or a stream of them) or a pre-aggregated
:class:`~repro.synth.traffic.TowerTrafficMatrix`, and always produces a
:class:`VectorizedTraffic` whose rows are the per-tower normalised vectors
``X_j = (x_j[1], …, x_j[N])``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.ingest.batch import RecordBatch
from repro.synth.traffic import TowerTrafficMatrix
from repro.utils.timeutils import TimeWindow
from repro.vectorize.aggregate import aggregate_batch, aggregate_batches
from repro.vectorize.normalize import NormalizationMethod, normalize_matrix


@dataclass
class VectorizedTraffic:
    """Normalised per-tower traffic vectors plus provenance.

    Attributes
    ----------
    tower_ids:
        Tower identifier of each row.
    vectors:
        Normalised vectors, shape ``(num_towers, num_slots)``.
    raw:
        The raw (pre-normalisation) traffic matrix, kept because the
        time-domain characterisation (Tables 4–5) needs absolute volumes.
    method:
        Normalisation method used.
    window:
        The observation window.
    """

    tower_ids: np.ndarray
    vectors: np.ndarray
    raw: TowerTrafficMatrix
    method: NormalizationMethod
    window: TimeWindow

    def __post_init__(self) -> None:
        self.tower_ids = np.asarray(self.tower_ids, dtype=int)
        self.vectors = np.asarray(self.vectors, dtype=float)
        if self.vectors.ndim != 2:
            raise ValueError(f"vectors must be 2-D, got shape {self.vectors.shape}")
        if self.tower_ids.shape[0] != self.vectors.shape[0]:
            raise ValueError("tower_ids must match the number of vector rows")
        if self.vectors.shape[1] != self.window.num_slots:
            raise ValueError(
                f"vectors have {self.vectors.shape[1]} slots, window defines "
                f"{self.window.num_slots}"
            )

    @property
    def num_towers(self) -> int:
        """Number of towers."""
        return int(self.vectors.shape[0])

    @property
    def num_slots(self) -> int:
        """Number of 10-minute slots."""
        return int(self.vectors.shape[1])

    def row_of(self, tower_id: int) -> int:
        """Return the row index of ``tower_id``."""
        matches = np.nonzero(self.tower_ids == tower_id)[0]
        if matches.size == 0:
            raise KeyError(f"tower {tower_id} not present")
        return int(matches[0])

    def vector(self, tower_id: int) -> np.ndarray:
        """Return the normalised vector of ``tower_id``."""
        return self.vectors[self.row_of(tower_id)]


class TrafficVectorizer:
    """Convert traffic logs or matrices into normalised traffic vectors.

    Parameters
    ----------
    method:
        Normalisation method; the paper's system uses z-score normalisation.
    """

    def __init__(self, *, method: NormalizationMethod = NormalizationMethod.ZSCORE) -> None:
        self.method = method

    def from_matrix(self, matrix: TowerTrafficMatrix) -> VectorizedTraffic:
        """Vectorize a pre-aggregated traffic matrix (fast path)."""
        vectors = normalize_matrix(matrix.traffic, self.method)
        return VectorizedTraffic(
            tower_ids=matrix.tower_ids.copy(),
            vectors=vectors,
            raw=matrix,
            method=self.method,
            window=matrix.window,
        )

    def from_batch(
        self,
        batch: RecordBatch,
        window: TimeWindow,
        *,
        tower_ids: Sequence[int] | None = None,
    ) -> VectorizedTraffic:
        """Vectorize a columnar record batch (fully vectorized aggregation)."""
        return self.from_matrix(aggregate_batch(batch, window, tower_ids=tower_ids))

    def from_batches(
        self,
        batches: Iterable[RecordBatch],
        window: TimeWindow,
        tower_ids: Sequence[int],
    ) -> VectorizedTraffic:
        """Vectorize a stream of record batches (out-of-core aggregation).

        ``tower_ids`` must be given up front: a streaming pass cannot
        discover the row set without re-reading the data.
        """
        return self.from_matrix(aggregate_batches(batches, window, tower_ids))
