"""The sign-function Lyapunov solver against independent oracles.

Oracles live here only: scipy's Bartels-Stewart solver, the dense
Kronecker-vectorized system, and numpy eigenvalues.
"""

import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import eig, solve_continuous_lyapunov

from oucausal import (
    Classification,
    OuModel,
    Verdict,
    classify,
    is_stable,
    screen_principal_submatrices,
    stationary_distribution,
    stationary_exists,
)
from oucausal.stability import solve_lyapunov

TOL = 1e-9


def _kronecker_solution(b, q):
    n = b.shape[0]
    ident = np.eye(n)
    k = np.kron(ident, b) + np.kron(b, ident)
    return np.linalg.solve(k, -q.ravel()).reshape(n, n)


def _dense_stable(rng, p):
    return rng.standard_normal((p, p)) / np.sqrt(p) - 1.5 * np.eye(p)


def _non_normal_stable(rng, p):
    """Triangular with known diagonal spectrum, rotated by a random orthogonal
    matrix; the strictly upper part makes it non-normal."""
    t = np.triu(rng.standard_normal((p, p)), 1) / np.sqrt(p)
    t += np.diag(-rng.uniform(0.5, 2.0, p))
    o, _ = np.linalg.qr(rng.standard_normal((p, p)))
    return o @ t @ o.T


def _bidiagonal(p, superdiag):
    return -np.eye(p) + superdiag * np.eye(p, k=1)


def _model(b):
    p = b.shape[0]
    return OuModel(p=p, d=p, x0=np.zeros(p), A=np.arange(p, dtype=float), B=b,
                   sigma=np.eye(p))


def _rel_err(x, ref):
    return np.max(np.abs(x - ref)) / np.max(np.abs(ref))


# ------------------------------------------------------------------- oracles

@pytest.mark.parametrize("p", [3, 5, 10, 20, 50])
@pytest.mark.parametrize("kind", ["dense", "non_normal"])
def test_solution_matches_scipy_and_kronecker(p, kind):
    rng = np.random.default_rng(1000 + p)
    b = (_dense_stable if kind == "dense" else _non_normal_stable)(rng, p)
    s = rng.standard_normal((p, p))
    q = s @ s.T
    ok, x = solve_lyapunov(b, q)
    assert ok
    assert np.array_equal(x, x.T)
    assert _rel_err(x, solve_continuous_lyapunov(b, -q)) <= 1e-9
    assert _rel_err(x, _kronecker_solution(b, q)) <= 1e-9
    residual = b @ x + x @ b.T + q
    assert np.max(np.abs(residual)) <= 1e-12 * np.max(np.abs(b)) * np.max(np.abs(x)) * p


@pytest.mark.parametrize("b", [
    np.zeros((1, 1)),
    np.array([[0.0, 1.0], [-1.0, 0.0]]),          # eigenvalues +-i
    np.array([[2.0, 7.0], [-1.0, -2.0]]),         # eigenvalues +-i sqrt(3)
    np.diag([-1.0, 0.5]),
    np.array([[1.0, 7.0], [-1.0, -3.0]]).T * -1,  # eigenvalues 1 +- i sqrt(3)
])
def test_axis_and_unstable_spectra_are_not_stable(b):
    assert solve_lyapunov(b, np.eye(b.shape[0])) == (False, None)


@pytest.mark.parametrize("b", [
    # eigenvalues 2.22, -0.22, -1 and -2.4e-154
    [[2.0, 0.0, 0.0, 1.0], [0.0, -1.0, 0.0, 0.0],
     [1.0, 0.0, -2.44382707e-154, 0.0], [0.5, 0.0, 0.0, 0.0]],
    # eigenvalues +-0.59 and -1.7e-80 (relative to the largest entry)
    [[5.863682281448284e-80, 0.0, -2.0951179792133425],
     [0.0, 0.0, -2.539810468670961],
     [-1.8787428836220494, 0.6520625586854116, 0.0]],
])
def test_eigenvalue_within_rounding_of_zero_does_not_hide_instability(b):
    # Rounding swamps the iteration here and its limit reads -I; the
    # residual check has to reject X.
    assert is_stable(b) == (False, None)


@pytest.mark.parametrize("im", [1.0, 10.0, 100.0])
@pytest.mark.parametrize("damping", [1e-3, 1e-6])
def test_abscissa_accurate_for_lightly_damped_rotation(im, damping):
    # Near the axis X loses accuracy fastest for such matrices; the
    # residual check must still accept the bisection's near-axis solves.
    b = np.array([[-2.0 * damping, im], [-im, 0.0]])
    report = classify(b)
    assert report.classification is Classification.STABLE
    assert abs(report.spectral_abscissa + damping) <= TOL


def test_classify_p50_matches_eigvals():
    rng = np.random.default_rng(50)
    b = _dense_stable(rng, 50)
    report = classify(b)
    truth = float(np.max(np.linalg.eigvals(b).real))
    assert report.classification is Classification.STABLE
    assert abs(report.spectral_abscissa - truth) <= 2 * TOL


# -------------------------------------------------------------- properties

def _decidable(b):
    """The verdict survives relative perturbations of 1e-8, and X fits float64.

    The first check uses first-order eigenvalue perturbation bounds: a
    perturbation E moves eigenvalue i by at most about kappa_i ||E||, where
    kappa_i is its condition number (infinite for a defective eigenvalue).
    X grows like 1/|B|, so it overflows float64 when every entry of the
    scaled B is below about 1e-300.
    """
    size = np.max(np.abs(b))
    if size < 1e-290:
        return False
    b = b / size  # LAPACK's eigensolvers lose accuracy on tiny inputs
    lam, left, right = eig(b, left=True, right=True)
    overlap = np.abs(np.sum(left.conj() * right, axis=0))
    with np.errstate(divide="ignore"):
        kappa = np.linalg.norm(left, axis=0) * np.linalg.norm(right, axis=0) / overlap
    shift = kappa * 1e-8 * np.linalg.norm(b, 2)
    return bool(np.all(lam.real + shift < 0) or np.any(lam.real - shift > 0))


_matrices = st.integers(1, 6).flatmap(
    lambda p: arrays(np.float64, (p, p),
                     elements=st.floats(-3.0, 3.0, allow_nan=False, width=64)))


@settings(max_examples=150, deadline=None)
@given(b=_matrices, k=st.floats(-6.0, 6.0))
def test_verdict_invariant_under_scaling(b, k):
    assume(_decidable(b))
    truth = float(np.max(np.linalg.eigvals(b / np.max(np.abs(b))).real)) < 0
    assert is_stable(b)[0] == truth
    assert is_stable(10.0**k * b)[0] == truth


@settings(max_examples=150, deadline=None)
@given(b=_matrices, data=st.data())
def test_verdict_invariant_under_symmetric_permutation(b, data):
    assume(_decidable(b))
    perm = data.draw(st.permutations(range(b.shape[0])))
    permuted = b[np.ix_(perm, perm)]
    assert is_stable(permuted)[0] == is_stable(b)[0]


# ---------------------------------------------- non-normal fault regressions

def test_bidiagonal_p10_is_stable_with_abscissa_minus_one():
    report = classify(_bidiagonal(10, 10.0))
    assert report.classification is Classification.STABLE
    assert abs(report.spectral_abscissa + 1.0) <= TOL


def test_bidiagonal_p10_stationary_cli_matches_scipy(tmp_path):
    b = _bidiagonal(10, 10.0)
    path = tmp_path / "bidiag.json"
    path.write_text(json.dumps({
        "p": 10, "d": 10, "x0": [0.0] * 10, "A": [0.0] * 10,
        "B": b.tolist(), "sigma": np.eye(10).tolist(),
    }))
    out = subprocess.run([sys.executable, "-m", "oucausal", "stationary", str(path)],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    cov = np.array(json.loads(out.stdout)["cov"])
    assert _rel_err(cov, solve_continuous_lyapunov(b, -np.eye(10))) <= 1e-9


def test_bidiagonal_p7_every_principal_submatrix_stable():
    screen = screen_principal_submatrices(_bidiagonal(7, 30.0))
    assert len(screen.entries) == 2**7 - 1
    for removed, report in screen.entries:
        assert report.classification is Classification.STABLE, removed
        assert abs(report.spectral_abscissa + 1.0) <= TOL, removed
    assert screen.all_proper_principal_submatrices_stable


def test_badly_scaled_dense_p20_has_stationary_law():
    rng = np.random.default_rng(20130849)
    b = _dense_stable(rng, 20)
    scale = 10.0 ** rng.uniform(-3.0, 3.0, size=20)
    conj = (scale[:, None] * b) / scale[None, :]
    model = _model(conj)
    assert stationary_exists(model).verdict is Verdict.EXISTS
    law = stationary_distribution(model)
    assert _rel_err(law.cov, solve_continuous_lyapunov(conj, -np.eye(20))) <= 1e-6


# ------------------------------------------------------- numpy-only runtime

def test_runtime_needs_only_numpy():
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import oucausal\n"
        "b = np.array([[-1.0, 0.5], [0.2, -2.0]])\n"
        "oucausal.classify(b)\n"
        "oucausal.stationary_distribution(oucausal.OuModel(\n"
        "    p=2, d=2, x0=[0, 0], A=[1, 2], B=b, sigma=np.eye(2)))\n"
        "assert 'scipy' not in sys.modules, sorted(\n"
        "    m for m in sys.modules if m.startswith('scipy'))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
