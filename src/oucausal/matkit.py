"""Dense real linear-algebra kernel.

All operations work on plain float64 numpy arrays and are pure functions.
It keeps only what numpy lacks: input validation, the scale-aware
thresholds, `expm` and one Cholesky loop with one pivot threshold for every
definiteness test. Solves, ranks, the 1-norm and the Pade quotient of `expm`
come from numpy.linalg. Every threshold is scale-aware (rank: sigma_max * n
* 2**-52; Cholesky pivots: n * 2**-52 * max|entry|; symmetry: 1e-9 relative),
so singularity and definiteness decisions do not change under rescaling.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    DimensionError,
    NonFiniteError,
    NotPositiveDefiniteError,
    NotSymmetricError,
    SingularMatrixError,
)

_EPS = 2.0**-52

# Degree-13 Pade numerator coefficients for expm, constant term first:
# b_j = C(13, j) (26 - j)! / 26!, the usual table divided by its constant
# term 26!/13!. With b_0 = 1, V - U is near I instead of near 6.5e16 I, and
# the LAPACK solve returns expm(0) = I exactly.
_PADE13 = tuple(math.comb(13, j) / math.perm(26, j) for j in range(14))


def as_matrix(value, rows: int | None = None, cols: int | None = None,
              name: str = "matrix") -> np.ndarray:
    """Validate `value` as a finite float64 matrix and return a copy.

    Raises DimensionError on shape problems and NonFiniteError on NaN/Inf.
    """
    try:
        m = np.array(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DimensionError(f"{name}: not a rectangular numeric array ({exc})")
    if m.ndim != 2:
        raise DimensionError(f"{name}: expected 2 dimensions, got shape {m.shape}")
    if rows is not None and m.shape[0] != rows:
        raise DimensionError(f"{name}: expected {rows} rows, got {m.shape[0]}")
    if cols is not None and m.shape[1] != cols:
        raise DimensionError(f"{name}: expected {cols} columns, got {m.shape[1]}")
    if m.size and not np.all(np.isfinite(m)):
        raise NonFiniteError(f"{name}: contains non-finite entries")
    return m


def as_vector(value, dim: int | None = None, name: str = "vector") -> np.ndarray:
    """Validate `value` as a finite float64 vector and return a copy."""
    try:
        v = np.array(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DimensionError(f"{name}: not a numeric array ({exc})")
    if v.ndim != 1:
        raise DimensionError(f"{name}: expected 1 dimension, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise DimensionError(f"{name}: expected length {dim}, got {v.shape[0]}")
    if v.size and not np.all(np.isfinite(v)):
        raise NonFiniteError(f"{name}: contains non-finite entries")
    return v


def _require_square(m: np.ndarray, name: str) -> None:
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"{name}: expected a square matrix, got {m.shape}")


def pivot_limit(m: np.ndarray) -> float:
    """Scale-aware Cholesky pivot threshold n * 2**-52 * max|M|."""
    return m.shape[0] * _EPS * float(np.max(np.abs(m), initial=0.0))


def is_symmetric(m: np.ndarray) -> bool:
    """True when max|M - M^T| <= 1e-9 * max|M|."""
    scale = float(np.max(np.abs(m), initial=0.0))
    return float(np.max(np.abs(m - m.T), initial=0.0)) <= 1e-9 * scale


def solve_linear(m, rhs) -> np.ndarray:
    """Solve M X = rhs with numpy.linalg.solve.

    `rhs` may be a vector (length n) or a matrix (n x k); the result has the
    same shape. Raises SingularMatrixError when rank(M) < n, i.e. when a
    singular value of M is at or below sigma_max * n * 2**-52.
    """
    a = as_matrix(m, name="M")
    _require_square(a, "M")
    n = a.shape[0]
    try:
        b = np.array(rhs, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DimensionError(f"rhs: not a rectangular numeric array ({exc})")
    b = as_vector(b, n, "rhs") if b.ndim == 1 else as_matrix(b, n, name="rhs")
    r = rank(a)
    if r < n:
        raise SingularMatrixError(f"rank {r} is below the dimension {n} at working precision")
    return np.linalg.solve(a, b)


def expm(m) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring with a degree-13 Pade core.

    The squaring count is s = max(0, ceil(log2(norm1(M))) + 1), which brings
    the scaled 1-norm below 1/2; at that norm the Pade-13 approximant is
    accurate to machine precision.
    """
    a = as_matrix(m, name="M")
    _require_square(a, "M")
    n = a.shape[0]
    nrm = np.linalg.norm(a, 1) if n else 0.0  # numpy refuses a 0x0 norm
    s = 0 if nrm == 0.0 else max(0, int(np.ceil(np.log2(nrm))) + 1)
    a = np.ldexp(a, -s)
    ident = np.eye(n)
    b = _PADE13
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


@np.errstate(over="ignore", invalid="ignore")
def cholesky_pivots(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The one Cholesky loop, on the symmetric part of M. Returns (L, pivots).

    pivots[j] is the Schur-complement pivot of step j. A pivot at or below
    `pivot_limit(M)`, the one pivot threshold, leaves column j of L zero and
    the loop goes on; a NaN pivot leaves it NaN. When every pivot exceeds the
    limit, L L^T = (M + M^T) / 2. Past a failed pivot later entries can
    overflow (silently), so verdicts read pivots up to `first_failed_pivot`.
    """
    a = 0.5 * m + 0.5 * m.T  # halving first: entries near the float64 max stay finite
    n = a.shape[0]
    limit = pivot_limit(m)
    low = np.zeros_like(a)
    pivots = np.empty(n)
    for j in range(n):
        piv = a[j, j] - low[j, :j] @ low[j, :j]
        pivots[j] = piv
        if piv <= limit:
            continue
        low[j, j] = np.sqrt(piv)
        low[j + 1:, j] = (a[j + 1:, j] - low[j + 1:, :j] @ low[j, :j]) / low[j, j]
    return low, pivots


def first_failed_pivot(m: np.ndarray, pivots: np.ndarray) -> int | None:
    """First step whose pivot is not above `pivot_limit(M)` (NaN fails), or None."""
    failed = np.flatnonzero(~(pivots > pivot_limit(m)))
    return int(failed[0]) if failed.size else None


def cholesky(m) -> np.ndarray:
    """Lower-triangular L with L L^T = M for symmetric positive-definite M.

    The input must pass `is_symmetric` (else NotSymmetricError); it is
    explicitly symmetrized before factoring. A pivot that is not above
    `pivot_limit(M)`, NaN included, raises NotPositiveDefiniteError.
    """
    a = as_matrix(m, name="M")
    _require_square(a, "M")
    if not is_symmetric(a):
        raise NotSymmetricError(
            f"asymmetry {np.max(np.abs(a - a.T)):.3e} exceeds 1e-9 relative to "
            f"max entry {np.max(np.abs(a)):.3e}"
        )
    low, pivots = cholesky_pivots(a)
    j = first_failed_pivot(a, pivots)
    if j is not None:
        raise NotPositiveDefiniteError(
            f"pivot {pivots[j]:.3e} at step {j + 1} is below the threshold {pivot_limit(a):.3e}"
        )
    return low


def rank(m) -> int:
    """Numerical rank: the number of singular values of M above
    sigma_max * max(rows, cols) * 2**-52 (numpy.linalg.matrix_rank)."""
    a = as_matrix(m, name="M")
    return int(np.linalg.matrix_rank(a))
