"""The full-spectrum feature path: normalise the whole grid, FFT every row,
keep the principal bins.

This is what :func:`repro.spectral.features.extract_frequency_features`
computed before it evaluated the three bins directly; the tests hold the
direct DFT to it within a stated tolerance.
"""

from __future__ import annotations

import numpy as np

from repro.spectral.components import PrincipalComponents
from repro.spectral.features import FrequencyFeatures
from repro.vectorize.normalize import NormalizationMethod, normalize_matrix


def fft_frequency_features(
    traffic: np.ndarray,
    tower_ids: np.ndarray,
    components: PrincipalComponents,
    *,
    normalization: NormalizationMethod = NormalizationMethod.MAX,
) -> FrequencyFeatures:
    """Amplitudes and phases at the principal bins of each row's full FFT."""
    normalized = normalize_matrix(np.asarray(traffic, dtype=float), normalization)
    spectrum = np.fft.fft(normalized, axis=1)
    indices = np.array(components.indices(), dtype=int)
    scale = components.num_slots / 2.0
    return FrequencyFeatures(
        tower_ids=np.asarray(tower_ids, dtype=int),
        amplitudes=np.abs(spectrum[:, indices]) / scale,
        phases=np.angle(spectrum[:, indices]),
        components=components,
    )
