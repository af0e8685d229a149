"""Discrete Fourier transform wrappers.

The paper defines the spectrum as ``X̂[k] = Σ_n x[n] e^(-2πikn/N)`` — the
standard unnormalised DFT — and analyses the amplitude ``|X̂[k]|`` and phase
``arg X̂[k]`` of individual components.  The full-spectrum wrappers
delegate to ``numpy.fft`` and add shape checking plus batch (per-row)
operation; :func:`dft_basis` evaluates a few bins directly, as a matrix
product, for when only those bins are needed.
"""

from __future__ import annotations

import numpy as np


def dft(signal: np.ndarray) -> np.ndarray:
    """Return the full complex DFT of a 1-D signal or of every row of a matrix."""
    arr = np.asarray(signal, dtype=float)
    if arr.ndim == 1:
        return np.fft.fft(arr)
    if arr.ndim == 2:
        return np.fft.fft(arr, axis=1)
    raise ValueError(f"signal must be 1-D or 2-D, got shape {arr.shape}")


def dft_basis(bins: tuple[int, ...], num_slots: int) -> np.ndarray:
    """Return the real ``(num_slots, 2·len(bins))`` matrix of the DFT at ``bins``.

    Column ``j`` holds ``cos θ`` and column ``len(bins) + j`` holds ``−sin θ``
    for ``k = bins[j]``, with ``θ[n] = 2π·(k·n mod N)/N``: the integer
    reduction keeps every angle in ``[0, 2π)`` exactly, whatever ``k·n``.
    For a signal matrix ``x`` (one signal per row), ``x @ dft_basis(bins, N)``
    holds the real parts of ``X̂[k] = Σ_n x[n] e^(−2πikn/N)`` in its first
    ``len(bins)`` columns and the imaginary parts in the rest.
    """
    if num_slots <= 0:
        raise ValueError(f"num_slots must be positive, got {num_slots}")
    residues = np.outer(np.arange(num_slots), np.asarray(bins, dtype=np.int64)) % num_slots
    angles = 2.0 * np.pi * residues / num_slots
    return np.hstack([np.cos(angles), -np.sin(angles)])


def inverse_dft(spectrum: np.ndarray) -> np.ndarray:
    """Return the real part of the inverse DFT (input spectra are conjugate
    symmetric for real signals, so the imaginary residue is numerical noise)."""
    arr = np.asarray(spectrum, dtype=complex)
    if arr.ndim == 1:
        return np.real(np.fft.ifft(arr))
    if arr.ndim == 2:
        return np.real(np.fft.ifft(arr, axis=1))
    raise ValueError(f"spectrum must be 1-D or 2-D, got shape {arr.shape}")


def amplitude_spectrum(signal: np.ndarray) -> np.ndarray:
    """Return ``|X̂[k]|`` for a signal (or per row of a matrix)."""
    return np.abs(dft(signal))


def phase_spectrum(signal: np.ndarray) -> np.ndarray:
    """Return ``arg X̂[k]`` in radians for a signal (or per row of a matrix)."""
    return np.angle(dft(signal))


def dominant_frequencies(signal: np.ndarray, *, count: int = 3) -> np.ndarray:
    """Return the ``count`` non-DC frequency indices with the largest amplitude.

    Only the first half of the spectrum (positive frequencies) is considered;
    the DC component (k = 0) is excluded because it only encodes the mean.
    """
    arr = np.asarray(signal, dtype=float)
    if arr.ndim != 1:
        raise ValueError("dominant_frequencies expects a 1-D signal")
    if count <= 0:
        raise ValueError(f"count must be positive, got {count}")
    amplitudes = np.abs(np.fft.fft(arr))
    half = arr.size // 2 + 1
    candidates = amplitudes[1:half]
    order = np.argsort(candidates)[::-1][:count]
    return np.sort(order + 1)
