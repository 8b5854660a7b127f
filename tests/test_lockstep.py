"""The stacked (lockstep) sign solver and screen against the serial path.

Every stacked solve must equal, bit for bit, what the serial solver gives
for one matrix alone. That serial path is kept here, as `_reference_solve`
and `_reference_abscissa`, so the stacked kernel and its stack-of-one case
are both pinned to it. An abscissa estimate a starts from a numpy eigvals
hint, so its oracles are independent of eigvals: the serial solver must
find B - (a + tol/2) I stable and B - (a - tol/2) I not, and on a
well-conditioned B, a must lie within tol of mpmath's eigenvalues at 50
digits. Where no hint is used or its check fails, the estimate equals the
serial bisection.
"""

import csv
import io
import itertools
import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import eig
from scipy.sparse.csgraph import connected_components

from oucausal import OuModel, cli, classify, stability, stationary_distribution
from oucausal.stability import (
    screen_principal_submatrices, solve_lyapunov, solve_lyapunov_stack, spectral_abscissa,
)
from util import principal_submatrix

# ----------------------------------------------------------- serial reference


@np.errstate(all="ignore")
def _reference_solve(b, q):
    """The serial sign-iteration Lyapunov solver for one p x p B and Q, as it
    was before the stacked kernel: every check returns as soon as it fails."""
    n = b.shape[0]
    unit = math.ldexp(1.0, math.frexp(float(np.max(np.abs(b), initial=0.0)))[1] - 1)
    a, x = b / unit, q / unit
    scaled, unscaled_steps = True, 0
    for _ in range(100):
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
    bx = b @ x
    d = np.sqrt(2.0 * np.sum(np.abs(b) * np.abs(x), axis=1) + np.abs(np.diag(q)))
    residual = np.abs(bx + bx.T + q)
    if not (np.all(np.isfinite(x)) and np.all(residual <= 1e4 * np.outer(d, d))):
        return False, None
    return True, x


def _reference_abscissa(b, tol=stability.DEFAULT_TOL):
    """Plain bisection of the Gershgorin bracket, one serial solve per step."""
    d = np.diag(b)
    radii = np.sum(np.abs(b), axis=1) - np.abs(d)
    lo, hi = float(np.min(d - radii)), float(np.max(d + radii)) + 1.0
    steps = 0
    while hi - lo > tol and steps < 200:
        mid = 0.5 * lo + 0.5 * hi
        if _reference_solve(b - mid * np.eye(b.shape[0]), np.eye(b.shape[0]))[0]:
            hi = mid
        else:
            lo = mid
        steps += 1
    return 0.5 * lo + 0.5 * hi


def _same_solution(left, right):
    assert left[0] == right[0]
    if left[0]:
        assert np.array_equal(left[1], right[1])
    else:
        assert left[1] is None and right[1] is None

# -------------------------------------------------------------------- models


def _dense_mixed7():
    """Dense p=7 whose principal submatrices are partly stable, partly not."""
    rng = np.random.default_rng(7)
    return rng.standard_normal((7, 7)) / np.sqrt(7) - 0.35 * np.eye(7)


def _two_scc6():
    """Block upper-triangular p=6 with two dense 3x3 diagonal blocks."""
    rng = np.random.default_rng(6)
    b = np.zeros((6, 6))
    b[:3, :3] = rng.standard_normal((3, 3)) - 0.8 * np.eye(3)
    b[3:, 3:] = rng.standard_normal((3, 3)) - 0.8 * np.eye(3)
    b[:3, 3:] = rng.standard_normal((3, 3))
    return b


def _bidiagonal7():
    """The non-normal fault input: -I plus 30 on the superdiagonal."""
    return -np.eye(7) + 30.0 * np.eye(7, k=1)


def _dense9():
    rng = np.random.default_rng(9)
    return rng.standard_normal((9, 9)) / 3.0 - 0.4 * np.eye(9)


def _per_block_report(b, removed, abscissa, tol=stability.DEFAULT_TOL):
    """Classification and abscissa of the submatrix that leaves out `removed`,
    as the max over the blocks that B's strongly connected components (from
    scipy) cut it into. A 1x1 block's abscissa is its diagonal entry; a larger
    block's is `abscissa(block)`."""
    count, labels = connected_components(b != 0, directed=True, connection="strong")
    keep = [i for i in range(b.shape[0]) if i + 1 not in removed]
    blocks = [block for block in ([i for i in keep if labels[i] == c] for c in range(count))
              if block]
    value = max(float(b[block[0], block[0]]) if len(block) == 1
                else abscissa(b[np.ix_(block, block)]) for block in blocks)
    kind = ("Stable" if value < -tol else "Unstable" if value > tol
            else "SemistableNotStable")
    return kind, value


def _reference_report(b, removed):
    return _per_block_report(b, removed, _reference_abscissa)


def _classify_report(b, removed):
    return _per_block_report(b, removed, lambda block: classify(block).spectral_abscissa)


def _serial_csv(b, report):
    """`stability --submatrices` built from one `report(b, removed)` per entry."""
    p = b.shape[0]
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["removed_set", "classification", "abscissa"])
    for k in range(p):
        for removed in itertools.combinations(range(1, p + 1), k):
            kind, abscissa = report(b, removed)
            writer.writerow(["{" + ",".join(map(str, removed)) + "}", kind,
                             repr(float(abscissa))])
    return buffer.getvalue()


def _cli_csv(tmp_path, b, capsys):
    p = b.shape[0]
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"p": p, "d": p, "x0": [0.0] * p, "A": [0.0] * p,
                                "B": b.tolist(), "sigma": np.eye(p).tolist()}))
    assert cli.main(["stability", str(path), "--submatrices"]) == 0
    return capsys.readouterr().out


def _same_entries(left, right):
    assert len(left.entries) == len(right.entries)
    for (rm_l, rep_l), (rm_r, rep_r) in zip(left.entries, right.entries):
        assert rm_l == rm_r
        assert rep_l.classification is rep_r.classification
        assert rep_l.spectral_abscissa == rep_r.spectral_abscissa


# ------------------------------------------------------------ stacked solver

def test_stack_members_equal_their_single_solves():
    # Each member fails or passes a different check; a singular member makes
    # numpy's stacked inv raise for the whole stack.
    rng = np.random.default_rng(4)
    s = rng.standard_normal((4, 4))
    members = [
        (np.zeros((4, 4)), np.eye(4)),                                 # singular
        (np.diag([-1.0, -2.0, 0.0, 0.0])
         + np.array([[0, 0, 0, 0], [0, 0, 0, 0],
                     [0, 0, 0, 2.0], [0, 0, -2.0, 0]]), np.eye(4)),    # +-2i: the cap
        (np.diag([1e-310, -1.0, -1.0, -1.0]), np.eye(4)),             # iterate overflows
        (-1e-300 * np.eye(4), 1e300 * np.eye(4)),                     # X overflows
        (np.array([[2.0, 0.0, 0.0, 1.0], [0.0, -1.0, 0.0, 0.0],       # eigenvalue
                   [1.0, 0.0, -2.44382707e-154, 0.0],                 # within rounding
                   [0.5, 0.0, 0.0, 0.0]]), np.eye(4)),                # of zero
        (rng.standard_normal((4, 4)) / 2.0 - 1.5 * np.eye(4), s @ s.T),  # stable
    ]
    stacked = solve_lyapunov_stack(np.stack([b for b, _ in members]),
                                   np.stack([q for _, q in members]))
    assert [ok for ok, _ in stacked] == [False] * 5 + [True]
    for (b, q), solution in zip(members, stacked):
        _same_solution(solution, _reference_solve(b, q))
        _same_solution(solve_lyapunov(b, q), _reference_solve(b, q))


def test_stationary_covariance_equals_serial_reference():
    rng = np.random.default_rng(11)
    b = rng.standard_normal((5, 5)) / np.sqrt(5) - 1.2 * np.eye(5)
    sigma = rng.standard_normal((5, 5)) + 3.0 * np.eye(5)
    law = stationary_distribution(OuModel(p=5, d=5, x0=np.zeros(5), A=np.ones(5),
                                          B=b, sigma=sigma))
    ok, x = _reference_solve(b, sigma @ sigma.T)
    assert ok and np.array_equal(law.cov, x)


def _well_conditioned(b):
    """Every eigenvalue has condition number below 1e3, so float64 rounding
    moves the abscissa far less than the bisection tolerance."""
    lam, left, right = eig(b, left=True, right=True)
    overlap = np.abs(np.sum(left.conj() * right, axis=0))
    with np.errstate(divide="ignore", over="ignore"):
        kappa = np.linalg.norm(left, axis=0) * np.linalg.norm(right, axis=0) / overlap
    return bool(np.all(kappa < 1e3))


def _mp_abscissa(b):
    """Max real part of B's eigenvalues from mpmath at 50 digits."""
    if b.shape == (1, 1):  # mpmath's eig returns eigenvectors too for a 1x1 matrix
        return float(b[0, 0])
    with mpmath.workdps(50):
        values = mpmath.eig(mpmath.matrix(b.tolist()), left=False, right=False)
        return float(max(mpmath.re(v) for v in values))


def _brackets(b, abscissa, tol=stability.DEFAULT_TOL):
    """Whether the serial solver finds B - (a + tol/2) I stable and
    B - (a - tol/2) I not, for the estimate a."""
    eye = np.eye(b.shape[0])
    return (_reference_solve(b - (abscissa + tol / 2) * eye, eye)[0]
            and not _reference_solve(b - (abscissa - tol / 2) * eye, eye)[0])


def _check_estimate(b, abscissa, serial, exact=True, tol=stability.DEFAULT_TOL):
    """Oracles of an abscissa estimate. On a well-conditioned B it passes
    `_brackets` and, when `exact`, lies within tol of mpmath's eigenvalues.
    Elsewhere the solver's verdicts need not be monotone in the shift, so it
    passes `_brackets` or equals `serial`, the serial bisection's estimate."""
    if _well_conditioned(b):
        assert _brackets(b, abscissa, tol)
        if exact:
            assert abs(abscissa - _mp_abscissa(b)) <= tol
    else:
        assert abscissa == serial or _brackets(b, abscissa, tol)


def _counting_solves(monkeypatch):
    """Record the stack size of every `solve_lyapunov_stack` call."""
    calls = []
    solve = stability.solve_lyapunov_stack
    monkeypatch.setattr(stability, "solve_lyapunov_stack",
                        lambda b, q, *args: calls.append(len(b)) or solve(b, q, *args))
    return calls


_stacks = st.tuples(st.integers(1, 6), st.integers(1, 5)).flatmap(
    lambda mn: arrays(np.float64, (mn[0], mn[1], mn[1]),
                      elements=st.floats(-3.0, 3.0, allow_nan=False, width=64)))


@settings(max_examples=60, deadline=None)
@given(stack=_stacks)
def test_stacked_solves_equal_serial_reference(stack):
    # Q = B B^T + I is symmetric; the verdicts and X must match bit for bit,
    # in the stack and alone, whether B is stable or not. `solve_lyapunov`
    # first refuses a B singular within rounding, such as
    # [[-1, -6e-185], [-6e-185, -6e-185]], which the sign iteration reads Stable.
    q = stack @ stack.transpose(0, 2, 1) + np.eye(stack.shape[1])
    for (b, qm), solution in zip(zip(stack, q), solve_lyapunov_stack(stack, q)):
        _same_solution(solution, _reference_solve(b, qm))
        _same_solution(solve_lyapunov(b, qm), _reference_solve(b, qm)
                       if stability._invertible(b) else (False, None))


@settings(max_examples=60, deadline=None)
@given(stack=_stacks)
def test_stacked_abscissae_equal_serial_and_eigvals(stack):
    # Each member's estimate is the same in the stack and alone, and passes
    # the oracles, as does `spectral_abscissa`, which reads 1x1 blocks of
    # B's strongly connected components exactly and estimates the others.
    tol = stability.DEFAULT_TOL
    stacked = stability._abscissae(stack, tol)
    assert stacked == [stability._abscissae(b[None], tol)[0] for b in stack]
    for b, abscissa in zip(stack, stacked):
        _check_estimate(b, abscissa, _reference_abscissa(b))
        _check_estimate(b, spectral_abscissa(b, tol), _reference_report(b, ())[1])


def test_members_leave_a_two_step_stack_at_different_solves(monkeypatch):
    # The first solve tests two shifts per member. The dense member passes
    # its check there. The other, Q(-I + 10N)Q^T at p=5, has every
    # eigenvalue at -1, which eigvals reads as -0.995: the sign function
    # finds B - (h + 0.45 tol) I not stable (its bisection ends near
    # -0.95), so the member bisects alone and ends where the serial
    # bisection does.
    q = np.linalg.qr(np.random.default_rng(0).standard_normal((5, 5)))[0]
    non_normal = q @ (-np.eye(5) + 10.0 * np.eye(5, k=1)) @ q.T
    dense = np.random.default_rng(5).standard_normal((5, 5)) - 2.0 * np.eye(5)
    stack = np.array([non_normal, dense])
    calls = _counting_solves(monkeypatch)
    estimates = stability._abscissae(stack, stability.DEFAULT_TOL)
    assert estimates[0] == _reference_abscissa(non_normal)
    _check_estimate(dense, estimates[1], _reference_abscissa(dense))
    assert calls[0] == 4 and len(calls) > 1 and set(calls[1:]) == {1}


def test_defective_member_is_certified_by_its_check(monkeypatch):
    # -1.25 J (J all ones) with two entries changed has a defective
    # eigenvalue 0, which eigvals reads as 4e-16. The check's solve, scaled
    # from those estimates, certifies the hint; the estimate still passes
    # the oracles of the serial solver, which scales by the determinant.
    defective = np.full((5, 5), -1.25)
    defective[1, 0], defective[2, 3] = 2.0, 0.0
    calls = _counting_solves(monkeypatch)
    [abscissa] = stability._abscissae(defective[None], stability.DEFAULT_TOL)
    _check_estimate(defective, abscissa, _reference_abscissa(defective))
    assert calls == [2]


def test_check_near_a_complex_pair_takes_few_steps(monkeypatch):
    # Each member's rightmost eigenvalues are the pair -0.3 +- 2i, so the
    # check puts a complex pair within 0.45 tol of the axis. Scaled from the
    # eigenvalue estimates, its solve takes at most 10 steps (one stacked inv
    # each); determinantal scaling takes more than 20 on the same stack.
    rng = np.random.default_rng(0)
    stack = []
    for _ in range(4):
        core = np.zeros((6, 6))
        core[:2, :2] = [[-0.3, 2.0], [-2.0, -0.3]]
        core[2:4, 2:4] = [[-1.0, 0.5], [-0.5, -1.0]]
        core[4:, 4:] = np.diag([-1.5, -2.5])
        core[0, 2:] = rng.standard_normal(4)
        q = np.linalg.qr(rng.standard_normal((6, 6)))[0]
        stack.append(q @ core @ q.T)
    stack = np.array(stack)
    steps, checks = [], []
    inv, solve = np.linalg.inv, stability.solve_lyapunov_stack

    def counting_inv(a):
        steps[-1] += 1
        return inv(a)

    def counting_solve(b, q, eigs=None):
        steps.append(0)
        result = solve(b, q, eigs)
        if eigs is not None:
            checks.append((b, steps[-1]))
        return result

    monkeypatch.setattr(np.linalg, "inv", counting_inv)
    monkeypatch.setattr(stability, "solve_lyapunov_stack", counting_solve)
    estimates = stability._abscissae(stack, stability.DEFAULT_TOL)
    assert len(steps) == 1 and len(checks) == 1 and checks[0][1] <= 10
    assert all(abs(a + 0.3) <= stability.DEFAULT_TOL for a in estimates)
    steps.append(0)
    solve(checks[0][0], np.broadcast_to(np.eye(6), checks[0][0].shape))
    assert steps[-1] > 20


def test_zero_modulus_estimate_leaves_the_member_to_bisection(monkeypatch):
    # eigvals reads this triangular B's eigenvalues exactly: the hint h = -1
    # and h - 0.45 tol. At that shift an estimate is exactly 0, which cannot
    # scale a step, so no check is run and the member bisects.
    tol = stability.DEFAULT_TOL
    b = np.array([[-1.0, 1.0], [0.0, -1.0 - 0.45 * tol]])
    assert sorted(np.linalg.eigvals(b).real.tolist()) == [-1.0 - 0.45 * tol, -1.0]
    scaled = []
    solve = stability.solve_lyapunov_stack
    monkeypatch.setattr(stability, "solve_lyapunov_stack",
                        lambda b, q, eigs=None: scaled.append(eigs is not None) or solve(b, q, eigs))
    assert stability._abscissae(b[None], tol) == [_reference_abscissa(b, tol)]
    assert len(scaled) > 1 and not any(scaled)


def test_non_normal_input_falls_back_to_bisection(monkeypatch):
    # Q(-I + 10N)Q^T at p=10: every eigenvalue is -1, but eigvals reads the
    # abscissa as -0.80, and the sign function, which does not certify
    # that hint, bisects instead, from the Gershgorin bracket as the serial
    # path does, so the answer is the serial one. It is not -1: no float64
    # method reads -1 here (see ROADMAP).
    q = np.linalg.qr(np.random.default_rng(10).standard_normal((10, 10)))[0]
    b = q @ (-np.eye(10) + 10.0 * np.eye(10, k=1)) @ q.T
    calls = _counting_solves(monkeypatch)
    assert spectral_abscissa(b) == _reference_abscissa(b)
    assert calls[0] == 2 and len(calls) > 1 and set(calls[1:]) == {1}


def test_dense_screen_takes_one_solve_per_size_chunk(monkeypatch):
    # Every hint of a dense p=10 screen is certified at once: one solve for
    # each block size from 2 to 10 (1x1 blocks need none), each in one chunk.
    rng = np.random.default_rng(0)
    b = rng.standard_normal((10, 10)) / np.sqrt(10) - 1.5 * np.eye(10)
    calls = _counting_solves(monkeypatch)
    screen = screen_principal_submatrices(b)
    assert not screen.fast_path
    assert calls == [2 * math.comb(10, n) for n in range(10, 1, -1)]
    assert len(screen.entries) == 2**10 - 1


def test_bisection_step_cap_matches_serial_reference():
    # A bracket near the float64 maximum needs over 1000 halvings to reach
    # tol, so both bisections stop at the 200-step cap. There h + 0.45 tol
    # rounds to the eigvals hint h, so no check can bracket the abscissa and
    # every member bisects as the serial path does. The first member is
    # triangular, so the whole-matrix estimate is called directly:
    # `spectral_abscissa` would read its diagonal instead.
    tol = stability.DEFAULT_TOL
    stack = np.array([[[-1e308, 0.0], [5e307, -1e308]],
                      [[-1e308, 1e307], [-1e307, -1e308]],
                      [[-1e308, 3e307], [2e307, -9e307]]])
    hints = np.linalg.eigvals(stack).real.max(axis=1)
    assert np.all(np.isfinite(hints) & (hints + 0.45 * tol == hints))
    assert stability._abscissae(stack, tol) == [_reference_abscissa(b, tol) for b in stack]


# ----------------------------------------------------------------- screening

def test_submatrix_csv_equals_serial_reference(tmp_path, capsys):
    # Every entry keeps the serial reference's classification, and its
    # abscissa passes the oracles on the submatrix. mpmath runs on every
    # entry that leaves out at most two indices, which bounds its cost at p=9.
    for b in (_dense_mixed7(), _two_scc6(), _bidiagonal7(), _dense9()):
        rows = list(csv.reader(io.StringIO(_cli_csv(tmp_path, b, capsys))))
        reference = list(csv.reader(io.StringIO(_serial_csv(b, _reference_report))))
        assert [row[:2] for row in rows] == [row[:2] for row in reference]
        for (removed, _, abscissa), (_, _, serial) in zip(rows[1:], reference[1:]):
            removed = [int(i) for i in removed.strip("{}").split(",") if i]
            _check_estimate(principal_submatrix(b, removed), float(abscissa), float(serial),
                            exact=len(removed) <= 2)
    # A per-block `classify` loop (stacks of one) gives the same bytes.
    b = _dense_mixed7()
    assert _cli_csv(tmp_path, b, capsys) == _serial_csv(b, _classify_report)


@st.composite
def _permuted_block_triangular(draw):
    """Block upper-triangular B with 1x1 to 3x3 diagonal blocks, conjugated
    by a random permutation, so that the components need not be contiguous.
    The first block always depends on the second, so B is never symmetric
    and the screen never takes the symmetric fast path."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=2, max_size=3))
    p = sum(sizes)
    entries = st.floats(-3.0, 3.0, allow_nan=False, width=64)
    b = draw(arrays(np.float64, (p, p), elements=entries))
    start = np.cumsum([0] + sizes)
    for row in range(p):
        b[row, :start[np.searchsorted(start, row, side="right") - 1]] = 0.0
    b[0, start[1]] = b[0, start[1]] or 1.0
    order = np.array(draw(st.permutations(range(p))))
    return b[np.ix_(order, order)]


@settings(max_examples=40, deadline=None)
@given(b=_permuted_block_triangular(), data=st.data())
def test_permuted_block_triangular_screen_matches_eigvals(b, data):
    tol, p = stability.DEFAULT_TOL, len(b)
    screen = screen_principal_submatrices(b)
    assert not screen.fast_path
    entries = screen.entries
    # A cap below p - 1 keeps sets that remove only part of a component; its
    # entries are the full screen's first ones, bit for bit.
    k = data.draw(st.integers(0, p - 1), label="max_size_removed")
    capped = screen_principal_submatrices(b, max_size_removed=k).entries
    assert len(capped) == sum(math.comb(p, j) for j in range(k + 1))
    assert [(rm, r.classification, r.spectral_abscissa) for rm, r in capped] == [
        (rm, r.classification, r.spectral_abscissa) for rm, r in entries[:len(capped)]]
    whole, alone = entries[0][1], classify(b)
    assert (whole.classification, whole.spectral_abscissa) == (
        alone.classification, alone.spectral_abscissa)
    for removed, report in entries:
        sub = principal_submatrix(b, sorted(removed))
        truth = float(np.max(np.linalg.eigvals(sub).real))
        if _well_conditioned(sub):
            assert abs(report.spectral_abscissa - truth) <= tol
            if abs(truth) > 2 * tol:
                expected = (stability.Classification.STABLE if truth < 0
                            else stability.Classification.UNSTABLE)
                assert report.classification is expected


def test_triangular_b_whose_solve_overflows_reads_stable_everywhere(tmp_path, capsys):
    # Two 1x1 components, so the abscissa is exactly -1 everywhere. X has an
    # entry near 1e400, so every Lyapunov solve on the whole matrix fails,
    # shifted or not; the verdicts come from the blocks and do not need one.
    b = np.array([[-1.0, 1e200], [0.0, -1.0]])
    assert solve_lyapunov(b, np.eye(2)) == (False, None)
    entries = dict(screen_principal_submatrices(b).entries)
    for removed in ((), (1,), (2,)):
        report = entries[frozenset(removed)]
        assert report.classification is stability.Classification.STABLE
        assert report.spectral_abscissa == -1.0
    report = classify(b)
    assert report.classification is stability.Classification.STABLE
    assert report.spectral_abscissa == -1.0 and spectral_abscissa(b) == -1.0
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"p": 2, "d": 2, "x0": [0.0, 0.0], "A": [0.0, 0.0],
                                "B": b.tolist(), "sigma": np.eye(2).tolist()}))
    assert cli.main(["stability", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "{},Stable,-1.0"


def test_triangular_b_needs_no_lyapunov_solve(tmp_path, capsys, monkeypatch):
    # Every block of a triangular B is 1x1, so neither `classify` nor a screen
    # runs the solver: the abscissa is the largest diagonal entry.
    calls = _counting_solves(monkeypatch)
    upper = np.triu(np.random.default_rng(3).standard_normal((5, 5))) - 2.0 * np.eye(5)
    assert classify(upper).spectral_abscissa == np.max(np.diag(upper))
    _cli_csv(tmp_path, _bidiagonal7(), capsys)
    assert calls == []


@pytest.mark.parametrize("symmetric", [False, True])
def test_dense_screen_bisects_one_member_per_removal_set(monkeypatch, symmetric):
    # p=12 with at most one index removed: the whole matrix and its twelve
    # 11x11 submatrices, not every subset of the one component. A symmetric
    # unstable B declines the fast path after one solve, without a bisection.
    rng = np.random.default_rng(12)
    b = rng.standard_normal((12, 12)) / np.sqrt(12) - 0.5 * np.eye(12)
    if symmetric:
        b = 0.5 * (b + b.T)
    bisected = []
    abscissae = stability._abscissae
    monkeypatch.setattr(stability, "_abscissae",
                        lambda stack, tol: bisected.append(len(stack)) or abscissae(stack, tol))
    screen = screen_principal_submatrices(b, max_size_removed=1)
    assert len(screen.entries) == 13 and not screen.fast_path
    assert sum(bisected) <= 13


def test_dense_mixed7_has_stable_and_unstable_entries():
    # Keeps the byte-identity test above from passing on a one-sided screen.
    kinds = {rep.classification for _, rep in screen_principal_submatrices(
        _dense_mixed7()).entries}
    assert kinds == {stability.Classification.STABLE, stability.Classification.UNSTABLE}


def test_chunked_screen_equals_unchunked(monkeypatch):
    for b in (_dense_mixed7(), _two_scc6(), _bidiagonal7()):
        whole = screen_principal_submatrices(b)
        # 60 floats hold one 7x7 or 6x6 member, two 5x5, three 4x4, ...
        monkeypatch.setattr(stability, "_STACK_FLOATS", 60)
        _same_entries(screen_principal_submatrices(b), whole)
        monkeypatch.undo()
