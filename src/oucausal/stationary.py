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

import numpy as np

from . import matkit, stability
from .errors import (
    NonFiniteError,
    NoStationaryDistributionError,
    NotPositiveDefiniteError,
    NotSymmetricError,
    OuCausalError,
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

