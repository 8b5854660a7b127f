"""Shared helpers for the test suite."""

import numpy as np

from oucausal import OuModel, matkit, stability
from oucausal.errors import (
    DimensionError, NoStationaryDistributionError, OuCausalError, PreconditionError,
)


class EmptyResultError(OuCausalError):
    """`principal_submatrix` would produce an empty (0 x 0) matrix."""


_TINY = float.fromhex("0x1.b1c9c78a34513p-134")
# Unstable matrices with an eigenvalue within rounding of 0, on which the
# sign iteration alone read Stable: eigenvalues 0.0156 +- 0.353i and
# -1.6e-40; and 0.5 +- 1.32i and -4.7e-153 (mpmath, 400 digits).
SWAMPED = {
    "tiny-entries": np.array([[2.0**-5, 1.5, 1.0], [1.25, -_TINY, -_TINY],
                              [-2.0, -_TINY, 0.0]]),
    "near-equal-rows": np.array([[0.0, 1.0, 9.48e-153], [-1.0, 1.0, -1.0],
                                 [0.0, 1.0, 0.0]]),
}


def demo_triangular(A=(1.0, 2.0, 3.0), diag=(-1.0, -2.0, -1.5),
                    upper=(0.5, 0.3, 0.7), x0=(0.0, 0.0, 0.0)) -> OuModel:
    """3-dimensional model with upper-triangular B, negative diagonal, sigma = I."""
    b12, b13, b23 = upper
    b = [[diag[0], b12, b13], [0.0, diag[1], b23], [0.0, 0.0, diag[2]]]
    return OuModel(p=3, d=3, x0=list(x0), A=list(A), B=b, sigma=np.eye(3))


def gershgorin_stable(rng: np.random.Generator, p: int, scale: float = 1.0) -> np.ndarray:
    """Random matrix shifted so every Gershgorin disc lies in Re z <= -1."""
    r = rng.uniform(-scale, scale, (p, p))
    return r - (1.0 + np.max(np.sum(np.abs(r), axis=1))) * np.eye(p)


def diag_dominant(rng: np.random.Generator, p: int, scale: float = 2.0) -> np.ndarray:
    """Random matrix made strictly row diagonally dominant with negative diagonal.

    Every principal submatrix inherits the dominance, hence is invertible.
    """
    b = rng.uniform(-scale, scale, (p, p))
    b[np.arange(p), np.arange(p)] -= 0.5 + np.sum(np.abs(b), axis=1)
    return b


def principal_submatrix(m, removed) -> np.ndarray:
    """Delete the listed rows and the identical columns (1-based indices).

    The order of the surviving indices is preserved. Removing every index
    raises EmptyResultError; an out-of-range index raises DimensionError.
    """
    a = matkit.as_matrix(m, name="M")
    n = a.shape[0]
    if a.shape != (n, n):
        raise DimensionError(f"M must be square, got {a.shape}")
    rm = set(int(i) for i in removed)
    for i in rm:
        if not 1 <= i <= n:
            raise DimensionError(f"removed index {i} outside 1..{n}")
    if len(rm) == n:
        raise EmptyResultError("removing every index leaves an empty matrix")
    keep = [i for i in range(n) if i + 1 not in rm]
    return a[np.ix_(keep, keep)]


def random_triangular(rng: np.random.Generator, coincident: bool = False) -> np.ndarray:
    """Random upper-triangular 3x3 with diagonal in [-3, -0.1]."""
    diag = rng.uniform(-3.0, -0.1, 3)
    if coincident:
        diag[:] = diag[0]
    b = np.zeros((3, 3))
    b[np.triu_indices(3, 1)] = rng.uniform(-2.0, 2.0, 3)
    b[np.arange(3), np.arange(3)] = diag
    return b


def step_draws(seed: int, k: int, n_paths: int, count: int) -> np.ndarray:
    """The documented step-k noise, straight from numpy: PCG64 keyed by the
    SeedSequence of (seed, k) mod 2^64, (n_paths, count) standard normals."""
    key = np.random.SeedSequence([seed % 2**64, k % 2**64])
    return np.random.Generator(np.random.PCG64(key)).standard_normal((n_paths, count))


def gamma_by_quadrature(model: OuModel, t_end: float | None = None,
                        n: int = 2000) -> np.ndarray:
    """Composite-Simpson approximation of the covariance integral.

    Integrates e^{sB} sigma sigma^T e^{sB^T} over [0, t_end] on a uniform
    grid (n panels, rounded up to an even count). Default t_end is
    40/|spectral abscissa of B|, where the integrand has decayed to about
    e^-80 of its initial size. The independent oracle for
    `stationary_distribution`. Raises NoStationaryDistributionError when B
    is not stable.
    """
    b_stable, _ = stability.is_stable(model.B)
    if not b_stable:
        raise NoStationaryDistributionError("B is not stable")
    if t_end is None:
        t_end = 40.0 / abs(stability.spectral_abscissa(model.B))
    if t_end <= 0:
        raise PreconditionError("t_end must be positive")
    if n < 2:
        raise PreconditionError("n must be >= 2")
    panels = n + (n % 2)
    h = t_end / panels
    step = matkit.expm(h * model.B)
    s = model.sigma @ model.sigma.T
    acc = s.copy()                      # integrand at s = 0
    e = np.eye(model.p)
    for k in range(1, panels + 1):
        e = e @ step
        g = e @ s @ e.T
        if k == panels:
            weight = 1.0
        elif k % 2 == 1:
            weight = 4.0
        else:
            weight = 2.0
        acc += weight * g
    return (h / 3.0) * acc
