"""Stability and semistability of square matrices, decided by Lyapunov solves.

One solver serves every decision: the scaled Newton iteration for the
matrix sign function (Roberts 1971; Higham, Functions of Matrices, 2008,
ch. 5), run on the p x p blocks of H = [[B, Q], [0, -B^T]]. When B is
stable, sign(H) = [[-I, 2X], [0, I]], where X solves B X + X B^T + Q = 0.
So B is stable iff the iterates of B tend to sign(B) = -I, and the same
iteration yields X. Each step costs O(p^3). The solver takes a stack of
same-size problems and steps them in lockstep, since numpy's `inv` and
`slogdet` accept stacks; a single matrix is a stack of one. At small p
the cost is Python and numpy call overhead, which a stack shares.

The certificate X (for Q = I) is positive definite in exact arithmetic;
its accuracy falls as the spectral abscissa approaches 0, where X grows
without bound. The verdict is therefore read from the limit sign(B), not
from a Cholesky test of X, which rejects such an ill-conditioned X. X only
has to pass a loose residual test that catches an iteration swamped by
rounding (see `solve_lyapunov_stack`).

The spectral abscissa (max real part of the eigenvalues) is bracketed
by stability tests of shifts s, since B - s I is stable exactly when s
exceeds the abscissa; Gershgorin row bounds give the first bracket.
numpy eigvals supplies a hint h, and one solve tests h +- 0.45 tol: when
B - (h + 0.45 tol) I is stable and B - (h - 0.45 tol) I is not, the
abscissa is certified to within tol. Otherwise the Gershgorin bracket
is bisected, one solve per step. Either way the verdicts come from the
sign function, never from eigvals, which a non-normal B can mislead.

The check puts an eigenvalue within 0.45 tol of the axis, where
determinantal scaling gains about a factor 2 per step, so its solve is
scaled from the shifted eigvals estimates instead: mostly 7 or 8 steps,
not 20 to 30. Scaling sets the speed, not the limit, so eigvals still
decides nothing. Bisection and the stationarity solve keep determinantal
scaling, so their answers stay bit for bit those of the serial solver:
covariance digits would move everywhere, and on a defective or strongly
non-normal B a verdict moves with the rounding of the iteration.

One abscissa path serves `spectral_abscissa`, `classify` and
principal-submatrix screening. It factors B by the strongly connected
components of its dependence graph, found from a boolean transitive
closure: a principal submatrix's spectrum is the union of its blocks'
spectra, one block per component met, so only the distinct blocks that
the kept sets cut the components into are estimated, at most Sum 2^|C|
instead of 2^p submatrices. A 1x1 block's abscissa is its diagonal entry,
so a triangular B needs no solve. The blocks of one size are estimated
together, each with its own bracket, in chunks that bound memory. A report
is read from its abscissa alone; the certificate X comes only from
`is_stable`.

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
from .errors import DimensionError, TooLargeError
from .matkit import DEFAULT_TOL

DEFAULT_SUBSET_BUDGET = 2**14
_SIGN_MAX_ITER = 100  # far above the ~10-40 steps a decidable input needs
_SWAMPED_SCORE = 1e4  # scaled residual of a swamped solve; see solve_lyapunov_stack
_STACK_FLOATS = 2**20  # floats per gathered stack in a screen (twice that in the
                       # hint check, two shifts per member), which bounds its memory


class Classification(str, Enum):
    STABLE = "Stable"
    SEMISTABLE_NOT_STABLE = "SemistableNotStable"
    UNSTABLE = "Unstable"


@dataclass(frozen=True, eq=False)
class StabilityReport:
    """Three-way classification read from the spectral abscissa estimate.

    `spectral_abscissa` is the max over the matrix's blocks, one per
    strongly connected component, of an estimate accurate to `tol` (the
    midpoint of a bracket set by stability tests), exact for 1x1 blocks;
    for fast-path screen entries (B exactly symmetric) it is an upper BOUND
    (see `screen_principal_submatrices`). The Lyapunov certificate X is
    not part of a report: `is_stable` returns it.
    """

    classification: Classification
    spectral_abscissa: float
    tol: float


@dataclass(frozen=True)
class SubmatrixScreen:
    """Classification of principal submatrices, keyed by removed index sets."""

    entries: tuple[tuple[frozenset[int], StabilityReport], ...]
    all_proper_principal_submatrices_stable: bool
    fast_path: bool = False


@np.errstate(all="ignore")  # overflow and singular iterates are verdicts here
def solve_lyapunov_stack(b: np.ndarray, q: np.ndarray,
                         eigs: np.ndarray | None = None) -> list[tuple[bool, np.ndarray | None]]:
    """Decide stability of each B and solve B X + X B^T + Q = 0, in O(p^3) per step.

    Coupled sign iteration with determinantal scaling c = |det B_k|^(-1/p):

        B_{k+1} = (c B_k + (c B_k)^-1) / 2
        Q_{k+1} = (c Q_k + B_k^-1 Q_k B_k^-T / c) / 2

    `eigs`, (m, p) estimates of each B's eigenvalues, selects spectral
    scaling (Kenney and Laub, SIAM J. Matrix Anal. Appl. 13, 1992; Higham,
    Functions of Matrices, 2008, 5.5) from their images, which each step
    maps as mu <- (c mu + 1/(c mu)) / 2. The first step takes c = 1/|mu*|,
    mu* nearest the imaginary axis in angle, which maps a pair near the
    axis onto the real axis; later ones take c = 1/sqrt(min|mu| max|mu|).
    Every estimate needs a nonzero, finite modulus. A poor estimate costs
    steps, at worst up to the cap, which reads not stable.

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

    Takes (m, p, p) stacks of B and Q, and returns for each member
    (True, X) with X = lim Q_k / 2 symmetrized, or (False, None). The
    members iterate in lockstep through numpy's stacked `inv` and
    `slogdet`, and each leaves the stack when it finishes. A member gets
    the same floating-point operations, so the same bits, as alone.
    """
    m, n = b.shape[:2]
    unit = _unit(b)  # X is unchanged and the iteration starts near unit scale
    a, x = b / unit, q / unit
    members = list(range(m))  # stack position -> member
    phase = [0] * m  # 0 while scaling, then 1 + the unscaled steps taken
    results = [(False, None)] * m
    finished, ends = [], []  # members at phase 3, and their final (B_k, Q_k)
    # Estimate images, a column per member: min and max over rows are cheap.
    mu = None if eigs is None else np.ascontiguousarray(eigs.T) / unit.ravel()
    for step in range(_SIGN_MAX_ITER):
        try:
            inv = np.linalg.inv(a)
        except np.linalg.LinAlgError:  # one singular member fails the stack
            inv = np.array([_inverse_or_nan(ai) for ai in a])
        scaling, c = 0 in phase, 1.0
        if scaling:
            if mu is None:
                c = np.exp(-np.linalg.slogdet(a)[1] / n)
            else:
                r = np.abs(mu)
                if step:
                    c = 1.0 / np.sqrt(r.min(axis=0) * r.max(axis=0))
                else:  # the image nearest the axis in angle lands on the real axis
                    c = 1.0 / r[np.argmin(np.abs(mu.real) / r, axis=0), np.arange(r.shape[1])]
            if any(phase):  # members past scaling keep c = 1
                c[np.array(phase) > 0] = 1.0
            if mu is not None:
                mu = c * mu
                mu = 0.5 * (mu + 1.0 / mu)
            # A stack of one takes c as a scalar, which is cheaper to broadcast.
            c = c[:, None, None] if m > 1 else c[0]
        inv_c = inv / c
        a_next = 0.5 * (c * a + inv_c)
        x = 0.5 * (c * x + inv_c @ x @ inv.transpose(0, 2, 1))
        sizes = np.add.reduce(np.abs(a_next), axis=(1, 2)).tolist()
        if scaling:
            changes = np.add.reduce(np.abs(a_next - a), axis=(1, 2)).tolist()
        a = a_next
        done, failed = [], False
        for i, size in enumerate(sizes):
            if not math.isfinite(size):
                phase[i], failed = -1, True
            elif phase[i]:
                phase[i] += 1
                if phase[i] == 3:
                    done.append(i)
            elif changes[i] <= 1e-3 * size:
                phase[i] = 1
        if done:
            finished += [members[i] for i in done]
            ends.append((a[done], x[done]))
        if done or failed:  # members at phase -1 or 3 leave the stack
            stay = [i for i, k in enumerate(phase) if 0 <= k < 3]
            if not stay:
                break
            a, x = a[stay], x[stay]
            if mu is not None:
                mu = mu[:, stay]
            members = [members[i] for i in stay]
            phase = [phase[i] for i in stay]
    if finished:  # one check for all, whenever they finished
        ok, xs = _checked(b[finished], q[finished], *map(np.concatenate, zip(*ends)))
        for member, good, xm in zip(finished, ok.tolist(), xs):
            if good:
                results[member] = (True, xm)
    # Members left in the stack hit the cap: eigenvalues on the axis.
    return results


def _unit(b: np.ndarray) -> np.ndarray:
    """The power of two 2^(e-1) <= max|B| < 2^e over B's last two axes, kept
    as axes of length 1 (1/2 for B = 0). Dividing by it is exact and leaves
    the largest entry in [1, 2): the sign iteration starts near unit scale,
    and B D in the certificate search stays finite unless D nears the float64
    maximum (2^e overflows at max|B| >= 2^1023). Cholesky pivots and their
    limit scale alike, bit for bit when e - 1 is even."""
    top = np.abs(b).max(axis=(-2, -1), keepdims=True, initial=0.0)
    return np.ldexp(0.5, np.frexp(top)[1])


def solve_lyapunov(b: np.ndarray, q: np.ndarray) -> tuple[bool, np.ndarray | None]:
    """`solve_lyapunov_stack` for one p x p B and Q: (True, X) or (False, None),
    the latter without a solve for a B singular within rounding (`_invertible`)."""
    return solve_lyapunov_stack(b[None], q[None])[0] if _invertible(b) else (False, None)


def _inverse_or_nan(a: np.ndarray) -> np.ndarray:
    """Inverse of a, or NaNs, which fail the size test, when a is singular."""
    try:
        return np.linalg.inv(a)
    except np.linalg.LinAlgError:
        return np.full_like(a, np.nan)


def _checked(b, q, a, x) -> tuple[np.ndarray, np.ndarray]:
    """Trace, finiteness and residual tests of finished members, and their X."""
    ok = a.trace(axis1=1, axis2=2) < 1 - b.shape[-1]
    if not ok.any():  # the residual test is for limits that read -I
        return ok, x
    x = 0.25 * (x + x.transpose(0, 2, 1))
    bx = b @ x  # X is symmetric, so X B^T = (B X)^T
    d = np.sqrt(2.0 * (np.abs(b) * np.abs(x)).sum(axis=2) + np.abs(q.diagonal(axis1=1, axis2=2)))
    residual = np.abs(bx + bx.transpose(0, 2, 1) + q)
    bound = _SWAMPED_SCORE * (d[:, :, None] * d[:, None, :])
    return ok & (np.isfinite(x) & (residual <= bound)).all(axis=(1, 2)), x


def _square(b, tol: float = DEFAULT_TOL) -> np.ndarray:
    a = matkit.as_matrix(b, name="B")
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"B must be square, got {a.shape}")
    if not a.size:
        raise DimensionError("B must be nonempty")
    if not 0 < tol < np.inf:  # also rejects NaN
        raise DimensionError("tol must be positive and finite")
    return a


def _invertible(b: np.ndarray) -> bool:
    """False when B is within p u |B|_1 of a singular matrix: kappa_1(B) p u >= 1.

    By the Gastinel-Kahan theorem 1 / kappa(B) is B's relative distance to
    the nearest singular matrix, which is not stable, so at that distance no
    Stable verdict can be certified. An exactly singular B has kappa = inf.
    It guards `solve_lyapunov` only, not the abscissa search's shifted
    stacks: near a defective eigenvalue B - s I is singular within rounding
    for |s - lambda| up to about sqrt(u), which would derail bisection.
    kappa is taken of B / `_unit(B)`: the division is exact, and |B|_1 or
    inv(B) would overflow for B near the float64 maximum or subnormal.
    """
    return bool(np.linalg.cond(b / _unit(b), 1) < 1.0 / (b.shape[0] * matkit._EPS))


def is_stable(b) -> tuple[bool, np.ndarray | None]:
    """Decide stability of B; on success also return the Lyapunov certificate.

    The certificate X solves B X + X B^T = -I (see `solve_lyapunov`). A B
    singular within rounding (`_invertible`), or whose X is beyond float64,
    reads not stable: -1e-309 I does, which `stationary_exists` reads stable.
    """
    a = _square(b)
    return solve_lyapunov(a, np.eye(a.shape[0]))


def _abscissae(stack: np.ndarray, tol: float) -> list[float]:
    """`spectral_abscissa` of each member of an (m, n, n) stack, to within tol.

    numpy eigvals of the whole stack gives each member a hint h, and one
    stacked solve tests the shifts h +- delta, delta = 0.45 tol: when
    B - (h + delta) I is stable and B - (h - delta) I is not, the abscissa
    lies in that bracket, 0.9 tol wide. A verdict never rests on eigvals
    alone, which can miss the abscissa of a non-normal B by far more than
    tol (Trefethen and Embree, Spectra and Pseudospectra, 2005). The
    estimates, shifted, only scale that solve (see `solve_lyapunov_stack`).

    Every other member bisects its Gershgorin bracket, one stacked solve
    per step for all of them, since B - s I is stable iff s exceeds the
    abscissa. These are the members whose check fails, so their answer is
    the plain bisection's, and those whose hint is not finite, lies
    outside the bracket or is absorbed by rounding (h - delta = h + delta),
    or whose shifted estimates include a zero or infinite modulus.
    """
    d = np.diagonal(stack, axis1=1, axis2=2)
    radii = np.abs(stack).sum(axis=2) - np.abs(d)
    lo = (d - radii).min(axis=1).tolist()
    # Strictly above the abscissa, so B - hi I is stable.
    hi = ((d + radii).max(axis=1) + 1.0).tolist()
    try:
        values = np.linalg.eigvals(stack)
    except np.linalg.LinAlgError:
        values = np.full(stack.shape[:2], np.nan)
    delta = 0.45 * tol
    checks = values.real.max(axis=1)[:, None] + np.array([delta, -delta])
    # The estimates of B - s I at both shifts will scale the check's solve.
    with np.errstate(all="ignore"):
        estimates = values[:, None, :] - checks[:, :, None]
        moduli = np.abs(estimates)
    scalable = ((moduli > 0) & (moduli < np.inf)).all(axis=(1, 2)).tolist()
    # The chain is also False for a NaN or infinite hint.
    hinted = [i for i, (up, down) in enumerate(checks.tolist())
              if scalable[i] and lo[i] < down < up < hi[i]]
    ident = np.eye(stack.shape[1])

    def stable(members, shifts, eigs=None):  # one stacked solve for members[k] - shifts[k] I
        shifted = members - np.array(shifts)[:, None, None] * ident
        units = np.broadcast_to(ident, shifted.shape)
        return [ok for ok, _ in solve_lyapunov_stack(shifted, units, eigs)]

    if hinted:
        shifts = checks[hinted].ravel().tolist()
        verdicts = stable(np.repeat(stack[hinted], 2, axis=0), shifts,
                          estimates[hinted].reshape(len(shifts), -1))
        for j, i in enumerate(hinted):
            if verdicts[2 * j] and not verdicts[2 * j + 1]:
                lo[i], hi[i] = shifts[2 * j + 1], shifts[2 * j]
    active = [i for i in range(len(stack)) if hi[i] - lo[i] > tol]
    for _ in range(200):
        if not active:
            break
        # Halving first keeps lo + hi from overflowing near the float64
        # maximum; otherwise the bits equal 0.5 * (lo + hi).
        shifts = [0.5 * lo[i] + 0.5 * hi[i] for i in active]
        for ok, s, i in zip(stable(stack[active], shifts), shifts, active):
            (hi if ok else lo)[i] = s
        active = [i for i in active if hi[i] - lo[i] > tol]
    return [0.5 * l + 0.5 * h for l, h in zip(lo, hi)]


def _gathered(a: np.ndarray, rows: list[list[int]]):
    """Stacks of the principal submatrices a[r, r] for index lists r of one
    length, of at most _STACK_FLOATS floats each, which bounds memory."""
    rows = np.array(rows)
    chunk = max(1, _STACK_FLOATS // rows.shape[1] ** 2)
    for start in range(0, len(rows), chunk):
        r = rows[start:start + chunk]
        yield a[r[:, :, None], r[:, None, :]]


def _components(a: np.ndarray) -> list[list[int]]:
    """Strongly connected components of the graph with an edge j -> i iff
    b_ij != 0 (`dependence_graph` at tol 0), from its transitive closure."""
    reach = (a != 0) | np.eye(len(a), dtype=bool)
    while not np.array_equal(closer := reach @ reach, reach):
        reach = closer
    mutual = reach & reach.T
    components, seen = [], set()
    for i in range(len(a)):
        if i not in seen:
            components.append(np.flatnonzero(mutual[i]).tolist())
            seen.update(components[-1])
    return components


def _screen_abscissae(a: np.ndarray, kept: list[list[int]], tol: float) -> list[float]:
    """Spectral abscissa of each principal submatrix a[k, k], k in `kept`, as
    the max over its blocks, the non-empty intersections of k with the
    strongly connected components. Each distinct block is estimated once,
    all of one size in lockstep; a 1x1 block's abscissa is exact."""
    components = _components(a)
    splits = [[block for c in components if (block := tuple(i for i in c if i in keep))]
              for keep in map(set, kept)]
    by_size: dict[int, dict[tuple[int, ...], None]] = {}  # dicts as ordered sets
    for block in itertools.chain.from_iterable(splits):
        by_size.setdefault(len(block), {})[block] = None
    abscissa = {}
    for n, blocks in by_size.items():
        if n == 1:
            abscissa.update((block, float(a[block[0], block[0]])) for block in blocks)
            continue
        values = [s for stack in _gathered(a, list(blocks)) for s in _abscissae(stack, tol)]
        abscissa.update(zip(blocks, values))
    return [max(abscissa[block] for block in blocks) for blocks in splits]


def spectral_abscissa(b, tol: float = DEFAULT_TOL) -> float:
    """Max real part of the eigenvalues of B, to within +- tol.

    The max over B's blocks, one per strongly connected component, each
    read off exactly when 1x1 and otherwise bracketed by stability tests
    (B - s I is stable iff s > abscissa): one solve at an eigvals hint
    +- 0.45 tol, then bisection where that check fails (see `_abscissae`).
    """
    a = _square(b, tol)
    return _screen_abscissae(a, [list(range(len(a)))], tol)[0]


def _report(abscissa: float, tol: float) -> StabilityReport:
    return StabilityReport(
        Classification.STABLE if abscissa < -tol
        else Classification.UNSTABLE if abscissa > tol
        else Classification.SEMISTABLE_NOT_STABLE, abscissa, tol)


def classify(b, tol: float = DEFAULT_TOL) -> StabilityReport:
    """Three-way stability classification of B from `spectral_abscissa`.

    Stable when the abscissa estimate is below -tol, Unstable above +tol,
    and SemistableNotStable inside the band. It equals the whole-matrix
    entry of `screen_principal_submatrices(b)` bit for bit.
    """
    return _report(spectral_abscissa(b, tol), tol)


def screen_principal_submatrices(
    b,
    max_size_removed: int | None = None,
    budget: int = DEFAULT_SUBSET_BUDGET,
    tol: float = DEFAULT_TOL,
) -> SubmatrixScreen:
    """Classify the principal submatrices of B.

    Enumerates removal sets of size 0..max_size_removed (default p-1, i.e.
    every proper principal submatrix); raises TooLargeError when the count
    exceeds `budget`. Entries are ordered by removal-set size, then
    lexicographically, so output is deterministic.

    Each entry's abscissa is the max over the blocks that the strongly
    connected components of B's graph cut it into (see `_screen_abscissae`),
    and its classification follows from that abscissa as in `classify`. The
    entry for the empty removal set equals `classify(b)` bit for bit. On a B
    without zero entries every entry equals `classify` of its submatrix;
    elsewhere a removal can split a component, which `classify` of the
    submatrix reads as separate blocks, so the abscissae can differ within tol.

    Symmetric fast path: a symmetric stable matrix has only stable principal
    submatrices (eigenvalue interlacing), so when B is exactly symmetric
    (B == B^T; a nearly symmetric B can have an unstable one) and stable
    all entries are marked Stable without per-submatrix solves; their
    reported abscissa is then the parent's abscissa, which interlacing makes
    a valid upper bound. A tol that is not positive and finite raises
    DimensionError.
    """
    a = _square(b, tol)
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

    removed = [frozenset(rm) for k in range(max_removed + 1)
               for rm in itertools.combinations(range(1, p + 1), k)]
    # One solve decides whether the fast path can apply; only then is B estimated.
    if np.array_equal(a, a.T) and is_stable(a)[0]:
        base = classify(a, tol)
        if base.classification is Classification.STABLE:
            return SubmatrixScreen(tuple((rm, base) for rm in removed), True, fast_path=True)
    kept = [[i for i in range(p) if i + 1 not in rm] for rm in removed]
    entries = tuple((rm, _report(s, tol))
                    for rm, s in zip(removed, _screen_abscissae(a, kept, tol)))
    all_proper = all(rep.classification is Classification.STABLE for rm, rep in entries if rm)
    return SubmatrixScreen(entries, all_proper)


def verify_diagonal_certificate(b, diag) -> bool:
    """Check that D = diag(diag) is positive and B D + D B^T is negative definite,
    by the certificate search's own test on B divided by `_unit(B)`.

    D is first divided by a power of four near its largest entry, so that
    B D stays finite for D near the float64 maximum. That scales every
    entry, pivot and the pivot limit by an exact square, so the verdict is
    bit for bit that of the unscaled D wherever that does not overflow.
    """
    a = _square(b)
    d = matkit.as_vector(diag, a.shape[0], "diag")
    if not np.all(d > 0.0):
        return False
    d = np.ldexp(d, -2 * (int(np.frexp(d.max())[1]) // 2))
    return _certificate_pivots(a / _unit(a), d)[1]


def _certificate_pivots(a: np.ndarray, d: np.ndarray) -> tuple[float, bool]:
    """Score and verdict of D from one Cholesky pass over -(B D + D B^T) / 2,
    halved before the sum so that entries near the float64 maximum stay finite.
    The verdict is that no pivot fails; the score, the search objective, is
    the first failing pivot, else the smallest: how far D is from certifying.
    """
    m = a * d[None, :]  # B D for diagonal D
    s = -(0.5 * m + 0.5 * m.T)
    pivots = matkit.cholesky_pivots(s)[1]
    j = matkit.first_failed_pivot(s, pivots)
    return (float(pivots.min()), True) if j is None else (float(pivots[j]), False)


def diagonal_lyapunov_certificate(
    b, budget: int = 10_000, seed: int = 0
) -> np.ndarray | None:
    """Search for a positive diagonal D with B D + D B^T negative definite.

    Heuristic: random restarts over log-diagonal entries followed by
    coordinate-wise multiplicative refinement, maximizing the smallest
    Cholesky pivot of -(B D + D B^T); at most `budget` score evaluations.
    A candidate is returned (as the diagonal vector) as soon as the pivot
    pass that scores it, `verify_diagonal_certificate`'s test, passes; B is
    divided by `_unit(B)` first. Returning None proves nothing: the search
    is deterministic for a given (seed, budget) but incomplete.

    Why it is kept: a found D certifies every pinning at once. For an
    index set K, B_KK D_K + D_K B_KK^T is the principal submatrix of
    B D + D B^T on K, so it is negative definite too, and D_K > 0 makes
    B_KK stable. Every sequence of pinnings leaves such a B~. When the
    columns of sigma span R^p, those of sigma~ (rows deleted) span the
    reduced space, so the intervened model has a stationary law after
    every sequence of pinnings, which is the paper's question.
    """
    a = _square(b)
    if budget < 1:
        raise DimensionError("budget must be >= 1")
    a = a / _unit(a)
    n = a.shape[0]
    rng = np.random.default_rng(seed)
    evaluations = 0
    factors = (2.0, 0.5, 1.25, 0.8)

    while evaluations < budget:
        d = np.exp(rng.uniform(-2.0, 2.0, size=n))
        score, certified = _certificate_pivots(a, d)
        evaluations += 1
        if certified:
            return d
        improving = True
        while improving:  # each sweep is cut to the budget left
            improving = False
            sweep = itertools.product(range(n), factors)
            for i, f in itertools.islice(sweep, budget - evaluations):
                trial = d.copy()
                trial[i] *= f
                trial_score, certified = _certificate_pivots(a, trial)
                evaluations += 1
                if trial_score > score:
                    d, score, improving = trial, trial_score, True
                    if certified:
                        return d
    return None
