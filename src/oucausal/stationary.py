"""Existence and computation of stationary laws for OU models.

For diffusion matrices whose columns span R^p, a stationary distribution
exists iff the mean reversion speed B is stable; it is then the normal law
with mean A and covariance G solving sigma sigma^T + B G + G B^T = 0. When
sigma lacks full column span, existence depends on a more involved
criterion that is intentionally not decided here; the verdict is reported
as indeterminate together with the controllability rank.

`stationary_exists` is the one decision: the rank of sigma, then one
sign-function solve (`stability.solve_lyapunov`) on B / u and
Q = (sigma / s)(sigma / s)^T, with u and s powers of two
(`stability._unit`), so it runs near unit scale. Its limit decides
stability, and its X gives G = X s^2 / u exactly. G loses accuracy as the
spectral abscissa of B approaches 0; the test suite checks it against
G = integral_0^inf e^{sB} sigma sigma^T e^{sB^T} ds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Literal

import numpy as np

from . import matkit, stability
from .errors import (
    NonFiniteError,
    NoStationaryDistributionError,
    NotPositiveDefiniteError,
    NotSymmetricError,
    OuCausalError,
    PreconditionError,
)
from .models import OuModel


@dataclass(frozen=True, eq=False)
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
        ridge = 1e-12 * float((np.diagonal(cov) / mean.shape[0]).sum())
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


@dataclass(frozen=True, eq=False)
class StationarityVerdict:
    """Existence verdict plus the data it was decided from.

    `verdict` is Exists or NotExists only when sigma has full column span;
    otherwise it is IndeterminateColumnSpan and existence is not decided.
    `law` is the stationary law when the verdict is Exists and its
    covariance is finite and positive semidefinite; otherwise it is None,
    and `_no_law` holds the error that `stationary_distribution` raises.
    """

    verdict: Verdict
    controllability_rank: int
    sigma_full_column_span: bool
    b_stable: bool
    law: GaussianLaw | None = None
    _no_law: OuCausalError | None = field(default=None, repr=False)


def controllability_rank(b, sigma) -> int:
    """Rank of the p x (pd) block matrix [sigma | B sigma | ... | B^{p-1} sigma].

    Each block is divided by its largest absolute entry before it is stacked
    and multiplied by B / `stability._unit(B)`. Positive factors keep the
    column span, so the rank is unchanged, but a huge B^k sigma can neither
    overflow nor swamp the rank tolerance, relative to the largest singular value.
    """

    def unit(block: np.ndarray) -> np.ndarray:
        top = np.abs(block).max(initial=0.0)
        return block / top if top > 0 else block

    bm = stability._square(b)
    bm = bm / stability._unit(bm)
    blocks = [unit(matkit.as_matrix(sigma, bm.shape[0], None, "sigma"))]
    for _ in range(bm.shape[0] - 1):
        blocks.append(unit(bm @ blocks[-1]))
    return matkit.rank(np.hstack(blocks))


def stationary_exists(model: OuModel) -> StationarityVerdict:
    """Decide existence of a stationary law when sigma has full column span.

    Full column span (rank(sigma) = p) makes existence equivalent to
    stability of B, and the controllability rank p. Without it the verdict
    is indeterminate, and the rank is `controllability_rank`'s. The verdict
    carries the law when it exists and is representable (see
    `StationarityVerdict`); its mean is A, since B is then invertible.
    """
    full_span = matkit.rank(model.sigma) == model.p
    u, s = stability._unit(model.B).item(), stability._unit(model.sigma).item()
    scaled = model.sigma / s
    stable, x = stability.solve_lyapunov(model.B / u, scaled @ scaled.T)
    verdict = (Verdict.INDETERMINATE_COLUMN_SPAN if not full_span
               else Verdict.EXISTS if stable else Verdict.NOT_EXISTS)
    ctrl = model.p if full_span else controllability_rank(model.B, model.sigma)
    law = no_law = None
    with np.errstate(over="ignore"):
        g = None if x is None else np.ldexp(x, int(2 * math.log2(s) - math.log2(u)))
    if verdict is not Verdict.EXISTS:
        no_law = NoStationaryDistributionError(
            f"no stationary distribution: verdict {verdict.value}")
    elif not np.isfinite(g).all():
        no_law = NonFiniteError("the stationary covariance overflows float64")
    else:
        try:
            law = GaussianLaw(model.A.copy(), g)
        except (NotPositiveDefiniteError, NotSymmetricError) as exc:
            no_law = exc
    return StationarityVerdict(verdict, ctrl, full_span, stable, law, no_law)


def stationary_distribution(model: OuModel) -> GaussianLaw:
    """Stationary law of the model: mean A, covariance from the Lyapunov solve.

    Requires the verdict of `stationary_exists(model)` to be Exists, else
    raises NoStationaryDistributionError. The covariance G solves
    B G + G B^T + sigma sigma^T = 0 and is explicitly symmetrized; a G
    beyond the float64 range raises NonFiniteError.
    """
    verdict = stationary_exists(model)
    if verdict.law is None:
        raise verdict._no_law
    return verdict.law


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
        b1k, bkk = b13, b33  # X1's coupling to the other survivor, and its rate
    else:
        mean = np.array([
            a1 - (b13 / b11 - b12 * b23 / (b11 * b22)) * (c - a3),
            a2 - (b23 / b22) * (c - a3),
        ])
        b1k, bkk = b12, b22
    off = b1k / (2.0 * bkk * (b11 + bkk))
    cov = np.array([
        [-1.0 / (2.0 * b11) - b1k**2 / (2.0 * b11 * bkk * (b11 + bkk)), off],
        [off, -1.0 / (2.0 * bkk)],
    ])
    return GaussianLaw(mean, cov)
