"""Simplex-constrained least squares, batched over every tower.

Solves the quadratic program at the heart of Section 5.3 of the paper::

    minimise   ||F - Σ_i x_i F⁰_i||²
    subject to Σ_i x_i = 1,   x_i ≥ 0

For the paper's four primary components the problem is tiny, so an exact
active-set enumeration is used: every subset of components that could be
non-zero is tried, the equality-constrained least-squares problem is solved
on that face of the simplex, and the feasible solution with the smallest
residual wins.  A projected-gradient solver takes over for larger vertex
sets.

:func:`simplex_constrained_least_squares_batch` decomposes a whole ``(n, d)``
target matrix in one call: the KKT matrix of a face depends only on the face
(never on the target), so each face is LU-factorised **once** and solved
against all ``n`` right-hand sides in a single stacked ``np.linalg.solve``;
feasibility masking and the minimum-residual face selection run as
whole-array operations.  The per-target solver it is tested against lives in
``tests/oracles/simplex.py``; the two walk the faces in the same order with
the same feasibility / strict-improvement thresholds and agree to
``max|Δ| ≤ 1e-9``.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

import numpy as np

#: A face solution with any weight below this is discarded as infeasible.
FEASIBILITY_TOLERANCE = 1e-9
#: A face must beat the incumbent residual by more than this to replace it.
IMPROVEMENT_TOLERANCE = 1e-15


def project_to_simplex_batch(values: np.ndarray) -> np.ndarray:
    """Row-wise simplex projection of an ``(n, m)`` matrix.

    Each row is projected onto the probability simplex (Duchi et al.,
    2008).  Non-finite entries raise :class:`ValueError`, an all-equal row
    projects to the exact uniform point, and a row whose threshold leaves
    no support falls back to a one-hot vector at its largest entry.
    """
    matrix = np.asarray(values, dtype=float)
    if matrix.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {matrix.shape}")
    n, m = matrix.shape
    if m == 0:
        raise ValueError("cannot project rows of width zero")
    if not np.all(np.isfinite(matrix)):
        raise ValueError("cannot project rows with non-finite entries")
    if n == 0:
        return matrix.copy()

    result = np.empty_like(matrix)
    all_equal = np.all(matrix == matrix[:, :1], axis=1)
    result[all_equal] = 1.0 / m

    sorted_desc = np.sort(matrix, axis=1)[:, ::-1]
    cumulative = np.cumsum(sorted_desc, axis=1) - 1.0
    indices = np.arange(1, m + 1)
    condition = sorted_desc - cumulative / indices > 0
    has_support = condition.any(axis=1)
    # Last True per row; rows without support fall back to one-hot below.
    rho = m - 1 - np.argmax(condition[:, ::-1], axis=1)
    theta = cumulative[np.arange(n), rho] / (rho + 1.0)
    projected = np.maximum(matrix - theta[:, None], 0.0)
    totals = projected.sum(axis=1)

    regular = ~all_equal & has_support & (totals > 0)
    result[regular] = projected[regular] / totals[regular, None]

    one_hot = ~all_equal & ~regular
    if np.any(one_hot):
        rows = np.nonzero(one_hot)[0]
        result[rows] = 0.0
        result[rows, np.argmax(matrix[rows], axis=1)] = 1.0
    return result


def _auto_chunk_size(k: int, num_targets: int) -> int:
    """Bound the per-size KKT right-hand-side buffer to ~32 MB.

    The widest face group has ``C(k, k//2)`` faces of ``k//2 + 1`` unknowns;
    its stacked RHS holds ``faces × (size+1) × chunk`` doubles.
    """
    widest = comb(k, k // 2) * (k // 2 + 2)
    return int(np.clip(4_000_000 // max(widest, 1), 256, max(num_targets, 256)))


def _batch_exact(vertices: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact active-set solve of every row of ``targets`` at once.

    Walks the ``2^k − 1`` faces by size, then lexicographically.  Per face size
    the KKT systems of all ``C(k, size)`` faces are assembled as one
    ``(faces, size+1, size+1)`` tensor and solved against the shared
    ``(faces, size+1, n)`` right-hand-side block in a single stacked
    ``np.linalg.solve`` — the KKT matrix never depends on the target, so each
    face is factorised once for all ``n`` towers.  Selection rules: weights below ``-1e-9`` mark a face infeasible for
    that tower, surviving weights are clipped/renormalised, and a face
    replaces the incumbent only when its residual improves by ``> 1e-15``.
    """
    k, _ = vertices.shape
    n = targets.shape[0]
    best_coefficients = np.zeros((n, k))
    best_residuals = np.full(n, np.inf)

    for size in range(1, k + 1):
        faces = list(combinations(range(k), size))
        if size == 1:
            for (index,) in faces:
                residuals = np.linalg.norm(targets - vertices[index], axis=1)
                improve = residuals < best_residuals - IMPROVEMENT_TOLERANCE
                if np.any(improve):
                    best_residuals[improve] = residuals[improve]
                    best_coefficients[improve] = 0.0
                    best_coefficients[improve, index] = 1.0
            continue

        face_array = np.array(faces, dtype=int)  # (f, size)
        sub = vertices[face_array]  # (f, size, d)
        gram = sub @ np.swapaxes(sub, 1, 2)  # (f, size, size)
        num_faces = face_array.shape[0]
        kkt = np.zeros((num_faces, size + 1, size + 1))
        kkt[:, :size, :size] = 2.0 * gram
        kkt[:, :size, size] = 1.0
        kkt[:, size, :size] = 1.0
        rhs = np.empty((num_faces, size + 1, n))
        rhs[:, :size, :] = 2.0 * (sub @ targets.T)
        rhs[:, size, :] = 1.0
        try:
            solutions = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            # At least one face's KKT matrix is exactly singular (duplicate
            # vertices); retry face by face, dropping to lstsq for the
            # singular ones.
            solutions = np.empty((num_faces, size + 1, n))
            for face_index in range(num_faces):
                try:
                    solutions[face_index] = np.linalg.solve(
                        kkt[face_index], rhs[face_index]
                    )
                except np.linalg.LinAlgError:
                    solutions[face_index], *_ = np.linalg.lstsq(
                        kkt[face_index], rhs[face_index], rcond=None
                    )

        weights = solutions[:, :size, :]  # (f, size, n)
        for face_index, face in enumerate(faces):
            face_weights = weights[face_index]  # (size, n)
            feasible = ~np.any(face_weights < -FEASIBILITY_TOLERANCE, axis=0)
            if not np.any(feasible):
                continue
            clipped = np.maximum(face_weights, 0.0)
            totals = clipped.sum(axis=0)
            feasible &= totals > 0
            rows = np.nonzero(feasible)[0]
            if rows.size == 0:
                continue
            normalized = clipped[:, rows] / totals[rows]  # (size, |rows|)
            reconstruction = normalized.T @ vertices[list(face)]  # (|rows|, d)
            residuals = np.linalg.norm(targets[rows] - reconstruction, axis=1)
            improve = residuals < best_residuals[rows] - IMPROVEMENT_TOLERANCE
            winners = rows[improve]
            if winners.size == 0:
                continue
            best_residuals[winners] = residuals[improve]
            best_coefficients[winners] = 0.0
            best_coefficients[np.ix_(winners, list(face))] = normalized.T[improve]

    return best_coefficients, best_residuals


def _batch_projected_gradient(
    vertices: np.ndarray,
    targets: np.ndarray,
    *,
    max_iterations: int,
    tolerance: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Projected-gradient descent on every target row simultaneously.

    Iterates are full ``(n, k)`` matrices; every row takes the same step
    size and the row-wise simplex projection, and is frozen — excluded from further updates — as soon as its own
    objective improvement drops below ``tolerance``.
    """
    k = vertices.shape[0]
    n = targets.shape[0]
    coefficients = np.full((n, k), 1.0 / k)
    gram = vertices @ vertices.T
    linear = targets @ vertices.T  # (n, k)
    eigenvalues = np.linalg.eigvalsh(gram)
    lipschitz = float(max(eigenvalues[-1], 1e-12))
    step = 1.0 / lipschitz
    previous_objective = np.full(n, np.inf)
    active = np.ones(n, dtype=bool)
    for _ in range(max_iterations):
        rows = np.nonzero(active)[0]
        if rows.size == 0:
            break
        iterate = coefficients[rows]
        gradient = iterate @ gram - linear[rows]
        iterate = project_to_simplex_batch(iterate - step * gradient)
        coefficients[rows] = iterate
        objective = 0.5 * np.einsum("ij,ij->i", iterate @ gram, iterate) - np.einsum(
            "ij,ij->i", linear[rows], iterate
        )
        converged = np.abs(previous_objective[rows] - objective) < tolerance
        previous_objective[rows] = objective
        active[rows[converged]] = False
    residuals = np.linalg.norm(targets - coefficients @ vertices, axis=1)
    return coefficients, residuals


def simplex_constrained_least_squares_batch(
    vertices: np.ndarray,
    targets: np.ndarray,
    *,
    exhaustive_limit: int = 12,
    max_iterations: int = 2_000,
    tolerance: float = 1e-10,
    chunk_size: int | None = None,
    stats: dict | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Solve the simplex-constrained fit for every row of ``targets`` at once.

    One call decomposes an ``(n, d)`` matrix of targets against the shared
    ``(k, d)`` vertex matrix and returns ``(coefficients, residuals)`` of
    shapes ``(n, k)`` and ``(n,)``.

    Parameters
    ----------
    vertices, targets:
        Vertex matrix ``(k, d)`` and target matrix ``(n, d)``.  Both must be
        finite — a NaN target would silently poison whole face solves.
    exhaustive_limit:
        Up to this many vertices the exact face-enumeration solver is used;
        beyond it the projected-gradient solver takes over.
    max_iterations, tolerance:
        Projected-gradient settings (ignored by the exact solver).
    chunk_size:
        Towers per slice of the face-enumeration kernel; bounds the stacked
        right-hand-side buffers.  Auto-sized to ~32 MB by default — at the
        paper's ``k = 4`` that is one slice for well past 100k towers.
    stats:
        Optional dict filled (in place) with solver counters:
        ``rows`` (targets solved), ``chunks`` (exact-kernel slices),
        ``faces_enumerated`` (face solves across all slices, ``chunks ×
        (2^k − 1)``) and ``fallback_rows`` (rows routed to the
        projected-gradient fallback because ``k > exhaustive_limit``).
        Observability only; never changes the solve.
    """
    vertex_matrix = np.asarray(vertices, dtype=float)
    target_matrix = np.asarray(targets, dtype=float)
    if vertex_matrix.ndim != 2:
        raise ValueError(f"vertices must be 2-D, got shape {vertex_matrix.shape}")
    if target_matrix.ndim != 2:
        raise ValueError(f"targets must be 2-D, got shape {target_matrix.shape}")
    k, d = vertex_matrix.shape
    if k == 0:
        raise ValueError("need at least one vertex")
    if target_matrix.shape[1] != d:
        raise ValueError(
            f"targets have dimension {target_matrix.shape[1]}, vertices have {d}"
        )
    if not np.all(np.isfinite(vertex_matrix)):
        raise ValueError("vertices contain non-finite entries")
    if not np.all(np.isfinite(target_matrix)):
        raise ValueError("targets contain non-finite entries")
    n = target_matrix.shape[0]
    if stats is not None:
        stats.update(rows=n, chunks=0, faces_enumerated=0, fallback_rows=0)
    if n == 0:
        return np.zeros((0, k)), np.zeros(0)

    if k > exhaustive_limit:
        if stats is not None:
            stats["fallback_rows"] = n
        return _batch_projected_gradient(
            vertex_matrix,
            target_matrix,
            max_iterations=max_iterations,
            tolerance=tolerance,
        )

    if chunk_size is None:
        chunk_size = _auto_chunk_size(k, n)
    coefficients = np.empty((n, k))
    residuals = np.empty(n)
    chunks = 0
    for start in range(0, n, chunk_size):
        stop = min(start + chunk_size, n)
        chunk_coefficients, chunk_residuals = _batch_exact(
            vertex_matrix, target_matrix[start:stop]
        )
        coefficients[start:stop] = chunk_coefficients
        residuals[start:stop] = chunk_residuals
        chunks += 1
    if stats is not None:
        stats["chunks"] = chunks
        stats["faces_enumerated"] = chunks * ((1 << k) - 1)
    return coefficients, residuals
