"""Per-target simplex-constrained least squares: the oracle for the batched kernel.

:func:`simplex_constrained_least_squares` solves one target at a time with a
Python-level walk over the faces of the simplex;
:func:`repro.decompose.simplex.simplex_constrained_least_squares_batch` must
agree with it within ``1e-9``, and
:func:`repro.decompose.simplex.project_to_simplex_batch` must equal
:func:`project_to_simplex` row by row.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from repro.decompose.simplex import FEASIBILITY_TOLERANCE, IMPROVEMENT_TOLERANCE


def _uniform(size: int) -> np.ndarray:
    out = np.empty(size)
    out.fill(1.0 / size)
    return out


def project_to_simplex(values: np.ndarray) -> np.ndarray:
    """Project a vector onto the probability simplex (Duchi et al., 2008).

    Non-finite inputs raise :class:`ValueError` (a NaN would otherwise
    propagate silently through the sort/cumsum pipeline), and an all-equal
    vector — including magnitudes where ``v - θ`` cancels catastrophically —
    projects to the exact uniform point.
    """
    arr = np.asarray(values, dtype=float).ravel()
    if arr.size == 0:
        raise ValueError("cannot project an empty vector")
    if not np.all(np.isfinite(arr)):
        raise ValueError("cannot project a vector with non-finite entries")
    if np.all(arr == arr[0]):
        # Ties across every coordinate: the projection is uniform by symmetry.
        return _uniform(arr.size)
    sorted_desc = np.sort(arr)[::-1]
    cumulative = np.cumsum(sorted_desc) - 1.0
    indices = np.arange(1, arr.size + 1)
    condition = sorted_desc - cumulative / indices > 0
    if not np.any(condition):
        result = np.zeros_like(arr)
        result[int(np.argmax(arr))] = 1.0
        return result
    rho = int(np.nonzero(condition)[0][-1])
    theta = cumulative[rho] / (rho + 1.0)
    projected = np.maximum(arr - theta, 0.0)
    # Renormalise to absorb floating-point cancellation on large inputs so the
    # result sums to exactly one.
    total = projected.sum()
    if total <= 0:
        result = np.zeros_like(arr)
        result[int(np.argmax(arr))] = 1.0
        return result
    return projected / total


def _solve_on_face(
    vertices: np.ndarray, target: np.ndarray, face: tuple[int, ...]
) -> np.ndarray | None:
    """Solve the equality-constrained problem restricted to ``face``.

    Returns the full coefficient vector (zeros off the face) or ``None`` if
    the face solution violates non-negativity.
    """
    k = vertices.shape[0]
    sub = vertices[list(face)]  # (m, d)
    m = sub.shape[0]
    if m == 1:
        coefficients = np.zeros(k)
        coefficients[face[0]] = 1.0
        return coefficients

    # Minimise ||target - subᵀ w||² with Σ w = 1 via KKT system.
    gram = sub @ sub.T
    rhs = sub @ target
    kkt = np.zeros((m + 1, m + 1))
    kkt[:m, :m] = 2.0 * gram
    kkt[:m, m] = 1.0
    kkt[m, :m] = 1.0
    vector = np.zeros(m + 1)
    vector[:m] = 2.0 * rhs
    vector[m] = 1.0
    try:
        solution = np.linalg.solve(kkt, vector)
    except np.linalg.LinAlgError:
        solution, *_ = np.linalg.lstsq(kkt, vector, rcond=None)
    weights = solution[:m]
    if np.any(weights < -FEASIBILITY_TOLERANCE):
        return None
    coefficients = np.zeros(k)
    for index, weight in zip(face, weights):
        coefficients[index] = max(float(weight), 0.0)
    total = coefficients.sum()
    if total <= 0:
        return None
    return coefficients / total


def simplex_constrained_least_squares(
    vertices: np.ndarray,
    target: np.ndarray,
    *,
    exhaustive_limit: int = 12,
    max_iterations: int = 2_000,
    tolerance: float = 1e-10,
) -> tuple[np.ndarray, float]:
    """Return ``(coefficients, residual_norm)`` of the simplex-constrained fit.

    Parameters
    ----------
    vertices:
        Array of shape ``(k, d)``; row ``i`` is the feature vector ``F⁰_i``
        of primary component ``i``.
    target:
        The feature vector ``F`` to decompose, of length ``d``.
    exhaustive_limit:
        Up to this many vertices the exact face-enumeration solver is used;
        beyond it the projected-gradient solver takes over.
    max_iterations, tolerance:
        Projected-gradient settings (ignored by the exact solver).
    """
    vertex_matrix = np.asarray(vertices, dtype=float)
    target_vector = np.asarray(target, dtype=float).ravel()
    if vertex_matrix.ndim != 2:
        raise ValueError(f"vertices must be 2-D, got shape {vertex_matrix.shape}")
    k, d = vertex_matrix.shape
    if target_vector.size != d:
        raise ValueError(
            f"target has dimension {target_vector.size}, vertices have {d}"
        )
    if k == 0:
        raise ValueError("need at least one vertex")

    if k <= exhaustive_limit:
        best: np.ndarray | None = None
        best_residual = np.inf
        for size in range(1, k + 1):
            for face in combinations(range(k), size):
                candidate = _solve_on_face(vertex_matrix, target_vector, face)
                if candidate is None:
                    continue
                residual = float(
                    np.linalg.norm(target_vector - candidate @ vertex_matrix)
                )
                if residual < best_residual - IMPROVEMENT_TOLERANCE:
                    best_residual = residual
                    best = candidate
        assert best is not None  # the single-vertex faces always succeed
        return best, best_residual

    # Projected gradient for larger vertex sets.
    coefficients = np.full(k, 1.0 / k)
    gram = vertex_matrix @ vertex_matrix.T
    linear = vertex_matrix @ target_vector
    eigenvalues = np.linalg.eigvalsh(gram)
    lipschitz = float(max(eigenvalues[-1], 1e-12))
    step = 1.0 / lipschitz
    previous_objective = np.inf
    for _ in range(max_iterations):
        gradient = gram @ coefficients - linear
        coefficients = project_to_simplex(coefficients - step * gradient)
        objective = float(
            0.5 * coefficients @ gram @ coefficients - linear @ coefficients
        )
        if abs(previous_objective - objective) < tolerance:
            break
        previous_objective = objective
    residual = float(np.linalg.norm(target_vector - coefficients @ vertex_matrix))
    return coefficients, residual
