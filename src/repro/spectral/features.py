"""Per-tower frequency-domain features.

The paper characterises each tower by the amplitude and phase of its DFT at
the three principal frequency components (one week, one day, half a day):

    A_k^m = |X̂_m[k]|,    P_k^m = arg X̂_m[k]

computed on the tower's normalised traffic (so amplitudes are comparable
across towers of very different absolute volume).  These six numbers per
tower drive the visual analyses of Figs. 15–17 and the convex decomposition
of Section 5.3, whose default feature vector is ``(A_day, P_day, A_halfday)``.

Only those three bins are computed: the grid is normalised a block of rows
at a time, each row's mean is taken out, and the block is multiplied by the
``(slots × 6)`` cos/−sin matrix of the bins
(:func:`~repro.spectral.dft.dft_basis`), so neither a full spectrum nor a
normalised copy of the grid exists.  On the synthetic city the result
agrees with the bins of a full FFT to ~1e-14 relative (the FFT path is kept
in the tests as the parity oracle); the full-spectrum
:mod:`repro.spectral.dft` wrappers serve the figure analyses and the
band-limited reconstruction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.spectral.components import PrincipalComponents
from repro.spectral.dft import dft_basis
from repro.utils.stats import row_blocks
from repro.vectorize.normalize import NormalizationMethod, normalize_matrix

#: Names the feature arithmetic in the spectral stage's fingerprint: a bundle
#: whose features came from another algorithm (the full FFT, before this tag)
#: re-runs the stage on its first update.
FEATURE_ALGORITHM = "dft-bins"


@dataclass
class FrequencyFeatures:
    """Amplitude/phase features of a set of towers at the principal components.

    Attributes
    ----------
    tower_ids:
        Tower identifier per row.
    amplitudes:
        Array of shape ``(num_towers, num_components)`` with amplitudes,
        normalised by ``num_slots / 2`` so a unit-amplitude sinusoid has
        amplitude 1.0.
    phases:
        Array of the same shape with phases in radians (range ``(-π, π]``).
    components:
        The principal components the columns refer to.
    """

    tower_ids: np.ndarray
    amplitudes: np.ndarray
    phases: np.ndarray
    components: PrincipalComponents

    def __post_init__(self) -> None:
        self.tower_ids = np.asarray(self.tower_ids, dtype=int)
        self.amplitudes = np.asarray(self.amplitudes, dtype=float)
        self.phases = np.asarray(self.phases, dtype=float)
        if self.amplitudes.shape != self.phases.shape:
            raise ValueError("amplitudes and phases must have the same shape")
        if self.amplitudes.shape[0] != self.tower_ids.shape[0]:
            raise ValueError("tower_ids must match the number of feature rows")
        expected_cols = len(self.components.indices())
        if self.amplitudes.shape[1] != expected_cols:
            raise ValueError(
                f"expected {expected_cols} component columns, got {self.amplitudes.shape[1]}"
            )

    @property
    def num_towers(self) -> int:
        """Number of towers."""
        return int(self.amplitudes.shape[0])

    def column_of(self, name: str) -> int:
        """Return the column index of component ``name`` (week/day/half_day)."""
        labels = [
            label
            for label, value in self.components.labels().items()
            if value is not None
        ]
        if name not in labels:
            raise KeyError(f"component {name!r} not available (have {labels})")
        return labels.index(name)

    def amplitude(self, name: str) -> np.ndarray:
        """Return the amplitude column of component ``name``."""
        return self.amplitudes[:, self.column_of(name)]

    def phase(self, name: str) -> np.ndarray:
        """Return the phase column of component ``name``."""
        return self.phases[:, self.column_of(name)]

    def feature_matrix(self, spec: tuple[tuple[str, str], ...] = (
        ("amplitude", "day"),
        ("phase", "day"),
        ("amplitude", "half_day"),
    )) -> np.ndarray:
        """Return a feature matrix built from (kind, component) selectors.

        The default selection ``(A_day, P_day, A_halfday)`` is the paper's
        three-dimensional feature of Section 5.3 / Fig. 17.
        """
        columns = []
        for kind, component in spec:
            if kind == "amplitude":
                columns.append(self.amplitude(component))
            elif kind == "phase":
                columns.append(self.phase(component))
            else:
                raise ValueError(f"unknown feature kind {kind!r}")
        return np.column_stack(columns)

    def row_of(self, tower_id: int) -> int:
        """Return the row index of ``tower_id``."""
        matches = np.nonzero(self.tower_ids == tower_id)[0]
        if matches.size == 0:
            raise KeyError(f"tower {tower_id} not present")
        return int(matches[0])


def extract_frequency_features(
    traffic: np.ndarray,
    tower_ids: np.ndarray,
    components: PrincipalComponents,
    *,
    normalization: NormalizationMethod = NormalizationMethod.MAX,
) -> FrequencyFeatures:
    """Extract amplitude/phase features at the principal components.

    Parameters
    ----------
    traffic:
        Raw per-tower traffic matrix of shape ``(num_towers, num_slots)``.
    tower_ids:
        Tower identifier per row.
    components:
        Principal components of the observation window.
    normalization:
        Per-tower normalisation applied before the DFT; the paper normalises
        traffic so amplitude features of different towers are comparable
        (max normalisation by default, producing amplitudes in roughly
        ``[0, 1]`` like Fig. 15).
    """
    matrix = np.asarray(traffic)
    if matrix.ndim != 2:
        raise ValueError(f"traffic must be 2-D, got shape {matrix.shape}")
    if matrix.shape[1] != components.num_slots:
        raise ValueError(
            f"traffic has {matrix.shape[1]} slots but components were derived "
            f"for {components.num_slots}"
        )
    indices = components.indices()
    basis = dft_basis(indices, components.num_slots)
    products = np.empty((matrix.shape[0], basis.shape[1]))
    for block in row_blocks(*matrix.shape):
        normalized = normalize_matrix(matrix[block], normalization)
        # The bins (k ≠ 0) do not see a row's mean.  Taking it out keeps the
        # product's running sums small (the bins round ~10× less) and gives
        # a constant row bins of exactly 0, as the FFT does.
        normalized -= normalized.mean(axis=1, keepdims=True)
        np.matmul(normalized, basis, out=products[block])
        del normalized  # freed before the next block is taken
    real, imag = products[:, : len(indices)], products[:, len(indices) :]
    return FrequencyFeatures(
        tower_ids=np.asarray(tower_ids, dtype=int),
        amplitudes=np.hypot(real, imag) / (components.num_slots / 2.0),
        phases=np.arctan2(imag, real),
        components=components,
    )


def cluster_feature_statistics(
    features: FrequencyFeatures, labels: np.ndarray
) -> dict[int, dict[str, dict[str, tuple[float, float]]]]:
    """Return mean and standard deviation of amplitude/phase per cluster.

    The result maps cluster label → component name → ``{"amplitude": (mean,
    std), "phase": (mean, std)}`` and regenerates the data behind Fig. 16.
    Phase statistics use the circular mean/std so clusters wrapping around
    ±π are summarised correctly.
    """
    labels_arr = np.asarray(labels, dtype=int)
    if labels_arr.shape[0] != features.num_towers:
        raise ValueError("labels must have one entry per tower")
    component_names = [
        name for name, value in features.components.labels().items() if value is not None
    ]
    statistics: dict[int, dict[str, dict[str, tuple[float, float]]]] = {}
    for label in np.unique(labels_arr):
        members = labels_arr == label
        per_component: dict[str, dict[str, tuple[float, float]]] = {}
        for name in component_names:
            amplitudes = features.amplitude(name)[members]
            phases = features.phase(name)[members]
            sin_mean = float(np.mean(np.sin(phases)))
            cos_mean = float(np.mean(np.cos(phases)))
            circular_mean = float(np.arctan2(sin_mean, cos_mean))
            resultant = float(np.sqrt(sin_mean**2 + cos_mean**2))
            circular_std = float(np.sqrt(max(-2.0 * np.log(max(resultant, 1e-12)), 0.0)))
            per_component[name] = {
                "amplitude": (float(amplitudes.mean()), float(amplitudes.std())),
                "phase": (circular_mean, circular_std),
            }
        statistics[int(label)] = per_component
    return statistics
