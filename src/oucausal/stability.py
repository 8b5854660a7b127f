"""Stability and semistability of square matrices, decided without eigenvalues.

One solver serves every decision: the scaled Newton iteration for the
matrix sign function (Roberts 1971; Higham, Functions of Matrices, 2008,
ch. 5), run on the p x p blocks of H = [[B, Q], [0, -B^T]]. When B is
stable, sign(H) = [[-I, 2X], [0, I]], where X solves B X + X B^T + Q = 0.
So B is stable iff the iterates of B tend to sign(B) = -I, and the same
iteration yields X. Each step costs O(p^3).

The certificate X (for Q = I) is positive definite in exact arithmetic;
its accuracy falls as the spectral abscissa approaches 0, where X grows
without bound. The verdict is therefore read from the limit sign(B), not
from a Cholesky test of X, which rejects such an ill-conditioned X. X only
has to pass a loose residual test that catches an iteration swamped by
rounding (see `solve_lyapunov`).

The spectral abscissa (max real part of the eigenvalues) is found by
bisecting on the shift s, using the fact that B - s I is stable exactly
when s exceeds the abscissa; Gershgorin row bounds bracket the search.

Semistability ("no eigenvalue with positive real part") is decided up to a
tolerance band: exact imaginary-axis eigenvalues are not decidable in
floating point, so |abscissa| <= tol is reported as semistable-not-stable.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import matkit
from .errors import DimensionError, NotPositiveDefiniteError, TooLargeError

DEFAULT_TOL = 1e-9
DEFAULT_SUBSET_BUDGET = 2**14
_SIGN_MAX_ITER = 100  # far above the ~10-40 steps a decidable input needs
_SWAMPED_SCORE = 1e4  # scaled residual of a swamped solve; see solve_lyapunov


class Classification(str, Enum):
    STABLE = "Stable"
    SEMISTABLE_NOT_STABLE = "SemistableNotStable"
    UNSTABLE = "Unstable"


@dataclass(frozen=True)
class StabilityReport:
    """Three-way classification with the abscissa estimate and certificate.

    `spectral_abscissa` is a bisection estimate accurate to `tol` (it is an
    upper BOUND, not an estimate, for fast-path submatrix entries; see
    `screen_principal_submatrices`). `certificate`, present iff Stable, is
    the symmetric X with B X + X B^T = -I from `solve_lyapunov`.
    """

    classification: Classification
    spectral_abscissa: float
    tol: float
    certificate: np.ndarray | None = None


@dataclass(frozen=True)
class SubmatrixScreen:
    """Classification of principal submatrices, keyed by removed index sets."""

    entries: tuple[tuple[frozenset[int], StabilityReport], ...]
    all_proper_principal_submatrices_stable: bool
    fast_path: bool = False


@np.errstate(all="ignore")  # overflow and singular iterates are verdicts here
def solve_lyapunov(b: np.ndarray, q: np.ndarray) -> tuple[bool, np.ndarray | None]:
    """Decide stability of B and solve B X + X B^T + Q = 0, in O(p^3) per step.

    Coupled sign iteration with determinantal scaling c = |det B_k|^(-1/p):

        B_{k+1} = (c B_k + (c B_k)^-1) / 2
        Q_{k+1} = (c Q_k + B_k^-1 Q_k B_k^-T / c) / 2

    Scaling stops once a step changes B_k by at most 1e-3 relative, and two
    unscaled steps follow: near the axis the iterates level off instead of
    reaching a few ulps. The limit is -I iff trace = -p, since a sign
    matrix's trace is n_plus - n_minus. A singular or non-finite iterate, or
    the iteration cap (eigenvalues on the axis), means not stable.

    An eigenvalue within rounding of 0 makes an iterate singular at working
    precision, and rounding can then swamp the other eigenvalues so that
    the limit reads -I for an unstable B. Such an X misses its equation by
    far more than its own scale, so Stable also needs X finite with
    |R_ij| <= 1e4 sqrt(D_ii D_jj), where R = B X + X B^T + Q and
    D = |B| |X| + |X| |B^T| + |Q|. Swamped solves score above 1e10. Sound
    ones score about 1e-15 away from the axis, and stayed below 5 in
    sweeps down to 1e-11 from it, where X has lost most of its accuracy.

    Returns (True, X) with X = lim Q_k / 2 symmetrized, or (False, None).
    """
    n = b.shape[0]
    # Dividing B and Q by the power of two 2^(e-1) <= max|B| < 2^e leaves X
    # unchanged and starts the iteration near unit scale, so tiny or huge B
    # cannot overflow it (2^e itself overflows when max|B| >= 2^1023).
    unit = math.ldexp(1.0, math.frexp(float(np.max(np.abs(b), initial=0.0)))[1] - 1)
    a, x = b / unit, q / unit
    scaled, unscaled_steps = True, 0
    for _ in range(_SIGN_MAX_ITER):
        try:
            inv = np.linalg.inv(a)
            c = np.exp(-np.linalg.slogdet(a)[1] / n) if scaled else 1.0
        except np.linalg.LinAlgError:
            return False, None
        inv_c = inv / c
        a_next = 0.5 * (c * a + inv_c)
        x = 0.5 * (c * x + inv_c @ x @ inv.T)
        size = float(np.abs(a_next).sum())
        if not np.isfinite(size):
            return False, None
        if not scaled:
            unscaled_steps += 1
        elif float(np.abs(a_next - a).sum()) <= 1e-3 * size:
            scaled = False
        a = a_next
        if unscaled_steps == 2:
            break
    else:
        return False, None
    if not np.trace(a) < 1 - n:
        return False, None
    x = 0.25 * (x + x.T)
    bx = b @ x  # X is symmetric, so X B^T = (B X)^T
    d = np.sqrt(2.0 * np.sum(np.abs(b) * np.abs(x), axis=1) + np.abs(np.diag(q)))
    residual = np.abs(bx + bx.T + q)
    if not (np.all(np.isfinite(x)) and np.all(residual <= _SWAMPED_SCORE * np.outer(d, d))):
        return False, None
    return True, x


def is_stable(b) -> tuple[bool, np.ndarray | None]:
    """Decide stability of B; on success also return the Lyapunov certificate.

    The certificate X solves B X + X B^T = -I (see `solve_lyapunov`).
    """
    a = matkit.as_matrix(b, name="B")
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"B must be square, got {a.shape}")
    return solve_lyapunov(a, np.eye(a.shape[0]))


def gershgorin_real_bounds(b: np.ndarray) -> tuple[float, float]:
    """Bounds on the real parts of the eigenvalues from Gershgorin rows."""
    d = np.diag(b)
    radii = np.sum(np.abs(b), axis=1) - np.abs(d)
    return float(np.min(d - radii)), float(np.max(d + radii))


def spectral_abscissa(b, tol: float = DEFAULT_TOL) -> float:
    """Max real part of the eigenvalues of B, to within +- tol, by bisection.

    B - s I is stable iff s > abscissa, so each stability test halves the
    Gershgorin bracket.
    """
    a = matkit.as_matrix(b, name="B")
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"B must be square, got {a.shape}")
    if tol <= 0:
        raise DimensionError("tol must be positive")
    lo, hi = gershgorin_real_bounds(a)
    hi += 1.0  # strictly above the abscissa, so B - hi I is stable
    ident = np.eye(a.shape[0])
    iterations = 0
    while hi - lo > tol and iterations < 200:
        mid = 0.5 * (lo + hi)
        if is_stable(a - mid * ident)[0]:
            hi = mid
        else:
            lo = mid
        iterations += 1
    return 0.5 * (lo + hi)


def classify(b, tol: float = DEFAULT_TOL) -> StabilityReport:
    """Three-way stability classification of B.

    Stable when the abscissa estimate is below -tol (with certificate),
    Unstable above +tol, and SemistableNotStable inside the band.
    """
    a = matkit.as_matrix(b, name="B")
    abscissa = spectral_abscissa(a, tol)
    if abscissa < -tol:
        _, certificate = is_stable(a)
        return StabilityReport(Classification.STABLE, abscissa, tol, certificate)
    if abscissa > tol:
        return StabilityReport(Classification.UNSTABLE, abscissa, tol)
    return StabilityReport(Classification.SEMISTABLE_NOT_STABLE, abscissa, tol)


def screen_principal_submatrices(
    b,
    max_size_removed: int | None = None,
    budget: int = DEFAULT_SUBSET_BUDGET,
    tol: float = DEFAULT_TOL,
    use_fast_path: bool = True,
) -> SubmatrixScreen:
    """Classify the principal submatrices of B.

    Enumerates removal sets of size 0..max_size_removed (default p-1, i.e.
    every proper principal submatrix); raises TooLargeError when the count
    exceeds `budget`. Entries are ordered by removal-set size, then
    lexicographically, so output is deterministic.

    Symmetric fast path: a symmetric stable matrix has only stable principal
    submatrices (eigenvalue interlacing), so when B is symmetric and stable
    all entries are marked Stable without per-submatrix bisection; their
    reported abscissa is then the parent's abscissa, which interlacing makes
    a valid upper bound.
    """
    a = matkit.as_matrix(b, name="B")
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"B must be square, got {a.shape}")
    p = a.shape[0]
    max_removed = p - 1 if max_size_removed is None else min(max_size_removed, p - 1)
    if max_removed < 0:
        raise DimensionError("max_size_removed must be nonnegative")
    total = sum(math.comb(p, k) for k in range(max_removed + 1))
    if total > budget:
        raise TooLargeError(
            f"{total} removal sets exceed the budget of {budget}; "
            "restrict max_size_removed"
        )
    removal_sets = [
        frozenset(combo)
        for k in range(max_removed + 1)
        for combo in itertools.combinations(range(1, p + 1), k)
    ]

    base = classify(a, tol)
    if use_fast_path and matkit.is_symmetric(a) and base.classification is Classification.STABLE:
        entries = [(frozenset(), base)]
        bound = StabilityReport(
            Classification.STABLE, base.spectral_abscissa, tol, None
        )
        entries.extend((rm, bound) for rm in removal_sets[1:])
        return SubmatrixScreen(tuple(entries), True, fast_path=True)

    entries = [(frozenset(), base)]
    for rm in removal_sets[1:]:
        sub = matkit.principal_submatrix(a, rm)
        entries.append((rm, classify(sub, tol)))
    all_proper = all(
        rep.classification is Classification.STABLE
        for rm, rep in entries
        if rm
    )
    return SubmatrixScreen(tuple(entries), all_proper, fast_path=False)


def verify_diagonal_certificate(b, diag) -> bool:
    """Check that D = diag(diag) is positive and B D + D B^T is negative definite.

    The definiteness test is a Cholesky factorization of -(B D + D B^T).
    """
    a = matkit.as_matrix(b, name="B")
    d = matkit.as_vector(diag, a.shape[0], "diag")
    if np.any(d <= 0.0):
        return False
    m = a * d[None, :]          # B D for diagonal D
    s = -(m + m.T)
    try:
        matkit.cholesky(s)
    except NotPositiveDefiniteError:
        return False
    return True


def _definiteness_score(a: np.ndarray, d: np.ndarray) -> float:
    """Smallest Cholesky pivot of -(B D + D B^T); negative means a violation.

    Used as the search objective: the first failing pivot measures how far
    the candidate is from yielding a negative-definite B D + D B^T.
    """
    m = a * d[None, :]
    pivots = matkit.cholesky_pivots(-(m + m.T), 0.0)[1]
    failed = np.flatnonzero(pivots <= 0.0)
    return float(pivots[failed[0]] if failed.size else np.min(pivots, initial=np.inf))


def diagonal_lyapunov_certificate(
    b, budget: int = 10_000, seed: int = 0
) -> np.ndarray | None:
    """Search for a positive diagonal D with B D + D B^T negative definite.

    Heuristic: random restarts over log-diagonal entries followed by
    coordinate-wise multiplicative refinement, maximizing the smallest
    Cholesky pivot of -(B D + D B^T); at most `budget` score evaluations.
    A candidate is returned (as the diagonal vector) only after
    `verify_diagonal_certificate` passes exactly. Returning None proves
    nothing: the search is deterministic for a given (seed, budget) but
    incomplete.
    """
    a = matkit.as_matrix(b, name="B")
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"B must be square, got {a.shape}")
    if budget < 1:
        raise DimensionError("budget must be >= 1")
    n = a.shape[0]
    rng = np.random.default_rng(seed)
    evaluations = 0
    factors = (2.0, 0.5, 1.25, 0.8)

    while evaluations < budget:
        log_d = rng.uniform(-2.0, 2.0, size=n)
        d = np.exp(log_d)
        score = _definiteness_score(a, d)
        evaluations += 1
        if score > 0.0 and verify_diagonal_certificate(a, d):
            return d
        improving = True
        while improving and evaluations < budget:
            improving = False
            for i in range(n):
                for f in factors:
                    if evaluations >= budget:
                        break
                    trial = d.copy()
                    trial[i] *= f
                    trial_score = _definiteness_score(a, trial)
                    evaluations += 1
                    if trial_score > score:
                        d, score = trial, trial_score
                        improving = True
                        if score > 0.0 and verify_diagonal_certificate(a, d):
                            return d
    return None
