"""Existence and computation of stationary laws for OU models.

For diffusion matrices whose columns span R^p, a stationary distribution
exists iff the mean reversion speed B is stable; it is then the normal law
with mean A and covariance G solving sigma sigma^T + B G + G B^T = 0. The
Lyapunov equation is solved by the O(p^3) sign-function iteration of
`stability.solve_lyapunov`, the same one that decides stability. Its
accuracy falls as the spectral abscissa of B approaches 0; the quadrature
representation G = integral_0^inf e^{sB} sigma sigma^T e^{sB^T} ds gives an
independent cross-check.

When sigma lacks full column span, existence depends on a more involved
criterion that is intentionally not decided here; the verdict is reported
as indeterminate together with the controllability rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Literal

import numpy as np

from . import matkit, stability
from .errors import (
    DimensionError,
    NonFiniteError,
    NoStationaryDistributionError,
    NotPositiveDefiniteError,
    NotSymmetricError,
    PreconditionError,
)
from .models import OuModel


@dataclass(frozen=True)
class GaussianLaw:
    """Normal law with mean vector and positive-semidefinite covariance.

    Validation: cov must be symmetric within 1e-9 relative, and Cholesky of
    cov + 1e-12 * tr(cov)/p * I must succeed.
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = matkit.as_vector(self.mean, name="mean")
        cov = matkit.as_matrix(self.cov, mean.shape[0], mean.shape[0], "cov")
        if not matkit.is_symmetric(cov):
            raise NotSymmetricError("cov is not symmetric within 1e-9 relative")
        ridge = 1e-12 * float(np.trace(cov)) / mean.shape[0]
        try:
            matkit.cholesky(cov + ridge * np.eye(mean.shape[0]))
        except (NotPositiveDefiniteError, NotSymmetricError) as exc:
            raise NotPositiveDefiniteError(f"cov is not positive semidefinite: {exc}")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)


class Verdict(str, Enum):
    EXISTS = "Exists"
    NOT_EXISTS = "NotExists"
    INDETERMINATE_COLUMN_SPAN = "IndeterminateColumnSpan"


@dataclass(frozen=True)
class StationarityVerdict:
    """Existence verdict plus the data it was decided from.

    `verdict` is Exists or NotExists only when sigma has full column span;
    otherwise it is IndeterminateColumnSpan and existence is not decided.
    """

    verdict: Verdict
    controllability_rank: int
    sigma_full_column_span: bool
    b_stable: bool


def controllability_rank(b, sigma) -> int:
    """Rank of the p x (pd) block matrix [sigma | B sigma | ... | B^{p-1} sigma]."""
    bm = matkit.as_matrix(b, name="B")
    if bm.shape[0] != bm.shape[1]:
        raise DimensionError(f"B must be square, got {bm.shape}")
    sm = matkit.as_matrix(sigma, bm.shape[0], None, "sigma")
    blocks = [sm]
    acc = sm
    for _ in range(bm.shape[0] - 1):
        acc = bm @ acc
        blocks.append(acc)
    return matkit.rank(np.hstack(blocks))


def stationary_exists(model: OuModel) -> StationarityVerdict:
    """Decide existence of a stationary law when sigma has full column span.

    Full column span (rank(sigma) = p) makes existence equivalent to
    stability of B. Without full span the verdict is indeterminate; only
    the controllability rank is reported.
    """
    full_span = matkit.rank(model.sigma) == model.p
    b_stable, _ = stability.is_stable(model.B)
    ctrl = controllability_rank(model.B, model.sigma)
    if not full_span:
        return StationarityVerdict(
            Verdict.INDETERMINATE_COLUMN_SPAN, ctrl, False, b_stable
        )
    verdict = Verdict.EXISTS if b_stable else Verdict.NOT_EXISTS
    return StationarityVerdict(verdict, ctrl, True, b_stable)


def stationary_distribution(model: OuModel) -> GaussianLaw:
    """Stationary law of the model: mean A, covariance from the Lyapunov solve.

    Requires the verdict of `stationary_exists(model)` to be Exists: sigma
    of full column span and B stable, hence invertible, so the mean
    equation B mu = B A reduces to mu = A. The covariance G solves
    B G + G B^T + sigma sigma^T = 0 and is explicitly symmetrized.
    """
    verdict = Verdict.EXISTS
    if matkit.rank(model.sigma) < model.p:
        verdict = Verdict.INDETERMINATE_COLUMN_SPAN
    elif not stability.is_stable(model.B)[0]:
        verdict = Verdict.NOT_EXISTS
    if verdict is not Verdict.EXISTS:
        raise NoStationaryDistributionError(
            f"no stationary distribution: verdict {verdict.value}"
        )
    # B was just found stable, and the B iterates do not depend on Q, so a
    # failure here can only be a covariance beyond the float64 range.
    solved, g = stability.solve_lyapunov(model.B, model.sigma @ model.sigma.T)
    if not solved:
        raise NonFiniteError("the stationary covariance overflows float64")
    return GaussianLaw(model.A.copy(), g)


def gamma_by_quadrature(model: OuModel, t_end: float | None = None,
                        n: int = 2000) -> np.ndarray:
    """Composite-Simpson approximation of the covariance integral.

    Integrates e^{sB} sigma sigma^T e^{sB^T} over [0, t_end] on a uniform
    grid (n panels, rounded up to an even count). Default t_end is
    40/|spectral abscissa of B|, where the integrand has decayed to about
    e^-80 of its initial size. Serves as an independent oracle for
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


_CLOSED_FORM_TARGETS = ("X2", "X3")


def intervened_stationary_closed_form(
    b, a, c: float, which: Literal["X2", "X3"]
) -> GaussianLaw:
    """Closed-form stationary law of the two surviving coordinates after
    pinning one coordinate of the 3-dimensional triangular benchmark model.

    The setting is a 3-dimensional OU model with sigma = I and upper
    triangular B with strictly negative diagonal. Pinning X2 := c leaves
    coordinates (X1, X3) with

        mean = [a1 - (b12/b11) (c - a2), a3]
        cov  = [[-1/(2 b11) - b13^2 / (2 b11 b33 (b11 + b33)),
                 b13 / (2 b33 (b11 + b33))],
                [b13 / (2 b33 (b11 + b33)), -1/(2 b33)]]

    and pinning X3 := c leaves (X1, X2) with

        mean = [a1 - (b13/b11 - b12 b23 / (b11 b22)) (c - a3),
                a2 - (b23/b22) (c - a3)]
        cov  = same form with (b12, b22) in place of (b13, b33).

    The covariance formulas remain valid when the two diagonal entries
    coincide, so no separate branch is needed, and they do not involve c.
    """
    bm = matkit.as_matrix(b, 3, 3, "B")
    av = matkit.as_vector(a, 3, "A")
    c = float(c)
    if not np.isfinite(c):
        raise PreconditionError("c must be finite")
    if which not in _CLOSED_FORM_TARGETS:
        raise PreconditionError(f"which must be one of {_CLOSED_FORM_TARGETS}")
    lower = np.tril(bm, -1)
    if np.any(lower != 0.0):
        raise PreconditionError("B must be upper triangular")
    if np.any(np.diag(bm) >= 0.0):
        raise PreconditionError("B must have strictly negative diagonal")

    b11, b12, b13 = bm[0, 0], bm[0, 1], bm[0, 2]
    b22, b23 = bm[1, 1], bm[1, 2]
    b33 = bm[2, 2]
    a1, a2, a3 = av

    if which == "X2":
        mean = np.array([a1 - (b12 / b11) * (c - a2), a3])
        off = b13 / (2.0 * b33 * (b11 + b33))
        cov = np.array([
            [-1.0 / (2.0 * b11) - b13**2 / (2.0 * b11 * b33 * (b11 + b33)), off],
            [off, -1.0 / (2.0 * b33)],
        ])
    else:
        mean = np.array([
            a1 - (b13 / b11 - b12 * b23 / (b11 * b22)) * (c - a3),
            a2 - (b23 / b22) * (c - a3),
        ])
        off = b12 / (2.0 * b22 * (b11 + b22))
        cov = np.array([
            [-1.0 / (2.0 * b11) - b12**2 / (2.0 * b11 * b22 * (b11 + b22)), off],
            [off, -1.0 / (2.0 * b22)],
        ])
    return GaussianLaw(mean, cov)
