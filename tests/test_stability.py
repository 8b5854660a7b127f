import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oucausal import (
    Classification,
    classify,
    diagonal_lyapunov_certificate,
    is_stable,
    screen_principal_submatrices,
    spectral_abscissa,
    verify_diagonal_certificate,
)
from oucausal import controllability_rank, matkit
from oucausal.errors import DimensionError, TooLargeError
from util import gershgorin_stable, principal_submatrix

ROTATING = np.array([[1.0, 7.0], [-1.0, -3.0]])  # eigenvalues -1 +- i sqrt(3)


# ------------------------------------------------------------------ is_stable

def test_stable_despite_positive_diagonal_entry():
    ok, cert = is_stable(ROTATING)
    assert ok
    residual = ROTATING @ cert + cert @ ROTATING.T + np.eye(2)
    assert np.max(np.abs(residual)) <= 1e-8
    matkit.cholesky(cert)  # positive definite


def test_one_by_one_positive_not_stable():
    ok, cert = is_stable([[1.0]])
    assert not ok and cert is None


def test_negated_rotating_not_stable():
    assert not is_stable(-ROTATING)[0]


def test_minus_identity_certificate():
    ok, cert = is_stable(-np.eye(4))
    assert ok
    assert np.allclose(cert, 0.5 * np.eye(4), atol=1e-14)


@pytest.mark.parametrize("call", [
    is_stable, spectral_abscissa, classify, screen_principal_submatrices,
    diagonal_lyapunov_certificate, lambda b: controllability_rank(b, np.zeros((0, 1))),
    lambda b: verify_diagonal_certificate(b, np.ones(0)),
], ids=["is_stable", "spectral_abscissa", "classify", "screen_principal_submatrices",
        "diagonal_lyapunov_certificate", "controllability_rank",
        "verify_diagonal_certificate"])
def test_empty_b_is_a_dimension_error(call):
    with pytest.raises(DimensionError, match="B must be nonempty"):
        call(np.zeros((0, 0)))


@pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf])
@pytest.mark.parametrize("call", [spectral_abscissa, classify, screen_principal_submatrices],
                         ids=["spectral_abscissa", "classify", "screen_principal_submatrices"])
def test_tol_must_be_positive(call, tol):
    with pytest.raises(DimensionError, match="tol must be positive"):
        call(np.array([[1.0, 0.5], [0.2, -2.0]]), tol=tol)


# ---------------------------------------------------------- spectral abscissa

def test_abscissa_rotating_pair():
    assert abs(spectral_abscissa(ROTATING) - (-1.0)) <= 1e-6
    assert abs(spectral_abscissa(-ROTATING) - 1.0) <= 1e-6


def test_abscissa_zero_matrix_semistable():
    report = classify(np.zeros((1, 1)))
    assert abs(report.spectral_abscissa) <= 10 * report.tol
    assert report.classification is Classification.SEMISTABLE_NOT_STABLE


def test_classify_rotating():
    report = classify(ROTATING)
    assert report.classification is Classification.STABLE
    report_neg = classify(-ROTATING)
    assert report_neg.classification is Classification.UNSTABLE


def test_bisection_monotonicity():
    rng = np.random.default_rng(12)
    tol = 1e-9
    for _ in range(20):
        b = rng.uniform(-3.0, 3.0, (3, 3))
        a = spectral_abscissa(b, tol)
        assert is_stable(b - (a + 10 * tol) * np.eye(3))[0]
        assert not is_stable(b - (a - 10 * tol) * np.eye(3))[0]


def test_is_stable_agrees_with_abscissa_sign():
    rng = np.random.default_rng(1)
    tol = 1e-9
    tested = 0
    for _ in range(1000):
        n = int(rng.integers(1, 5))
        b = rng.uniform(-3.0, 3.0, (n, n))
        a = spectral_abscissa(b, tol)
        if abs(a) < 10 * tol:
            continue
        assert is_stable(b)[0] == (a < 0)
        tested += 1
    assert tested > 900


def test_certificate_residual_on_random_stable():
    rng = np.random.default_rng(4)
    for _ in range(50):
        b = gershgorin_stable(rng, int(rng.integers(1, 6)))
        ok, cert = is_stable(b)
        assert ok
        residual = b @ cert + cert @ b.T + np.eye(b.shape[0])
        assert np.max(np.abs(residual)) <= 1e-8
        matkit.cholesky(cert)


# ----------------------------------------------------------- submatrix screen

def _entry(screen, removed):
    for rm, rep in screen.entries:
        if rm == frozenset(removed):
            return rep
    raise KeyError(removed)


def test_screen_rotating_counterexample():
    screen = screen_principal_submatrices(ROTATING)
    assert _entry(screen, ()).classification is Classification.STABLE
    assert _entry(screen, {2}).classification is Classification.UNSTABLE
    assert _entry(screen, {1}).classification is Classification.STABLE
    assert not screen.all_proper_principal_submatrices_stable
    assert not screen.fast_path


def test_screen_negated_rotating():
    screen = screen_principal_submatrices(-ROTATING)
    assert _entry(screen, ()).classification is Classification.UNSTABLE
    assert _entry(screen, {2}).classification is Classification.STABLE


def test_screen_symmetric_fast_path():
    b = np.array([[-2.0, 1.0], [1.0, -2.0]])  # eigenvalues -1, -3
    screen = screen_principal_submatrices(b)
    assert screen.fast_path
    assert screen.all_proper_principal_submatrices_stable
    assert all(rep.classification is Classification.STABLE
               for _, rep in screen.entries)


def test_screen_fast_path_matches_enumeration():
    rng = np.random.default_rng(6)
    for _ in range(5):
        r = rng.uniform(-1.0, 1.0, (5, 5))
        b = 0.5 * (r + r.T) - (1.0 + np.max(np.sum(np.abs(r), axis=1))) * np.eye(5)
        fast = screen_principal_submatrices(b)
        assert fast.fast_path
        fast_map = {rm: rep.classification for rm, rep in fast.entries}
        reference = {rm: classify(principal_submatrix(b, rm)).classification
                     for rm, _ in fast.entries}
        assert fast_map == reference


def test_screen_fast_path_needs_exact_symmetry():
    # Within 1e-9 relative of symmetric and stable (abscissa -2e-8), but
    # pinning X2 leaves diag(1e-7, -1000), which is unstable: interlacing
    # holds only for an exactly symmetric B.
    b = np.array([[1e-7, 2e-7, 0.0], [-2e-7, -1.4e-7, 0.0], [0.0, 0.0, -1000.0]])
    assert matkit.is_symmetric(b) and is_stable(b)[0]
    screen = screen_principal_submatrices(b)
    assert not screen.fast_path
    assert not screen.all_proper_principal_submatrices_stable
    assert _entry(screen, ()).classification is Classification.STABLE
    pinned, kept = _entry(screen, {2}), classify(principal_submatrix(b, [2]))
    assert pinned.classification is Classification.UNSTABLE
    assert (pinned.classification, pinned.spectral_abscissa) == (
        kept.classification, kept.spectral_abscissa)


def test_screen_triangular_b_with_subnormal_entry_takes_general_path():
    # Symmetric within 1e-9 relative, which once sent it down the fast path.
    b = np.array([[-1.0, 2.2e-311], [0.0, -1.0]])
    assert not screen_principal_submatrices(b).fast_path


def test_screen_max_size_restriction():
    screen = screen_principal_submatrices(-np.eye(4), max_size_removed=1)
    assert len(screen.entries) == 1 + 4


def test_screen_budget():
    with pytest.raises(TooLargeError):
        screen_principal_submatrices(-np.eye(15))


# ----------------------------------------------------- diagonal certificates

def test_verify_minus_identity():
    assert verify_diagonal_certificate(-np.eye(3), np.ones(3))


def test_verify_symmetric_stable_with_unit_diagonal():
    b = np.array([[-2.0, 1.0], [1.0, -2.0]])
    assert verify_diagonal_certificate(b, np.ones(2))


def test_verify_rejects_nonpositive_diagonal():
    assert not verify_diagonal_certificate(-np.eye(2), np.array([1.0, 0.0]))


def test_verify_certificate_near_float64_max():
    # B D + D B^T would overflow at -2e308; the check halves before the sum.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert verify_diagonal_certificate(-1e308 * np.eye(3), np.ones(3))
        assert not verify_diagonal_certificate(1e308 * np.eye(3), np.ones(3))


def test_verify_diagonal_certificate_needs_square_b():
    with pytest.raises(DimensionError, match="B must be square"):
        verify_diagonal_certificate(np.zeros((2, 3)), np.ones(2))


def test_search_finds_certificate_for_minus_identity():
    d = diagonal_lyapunov_certificate(-np.eye(3), budget=100, seed=0)
    assert d is not None
    assert verify_diagonal_certificate(-np.eye(3), d)


def test_rotating_matrix_has_no_diagonal_certificate():
    # A positive diagonal certificate would force every principal submatrix
    # to be semistable, contradicting the unstable [[1]] block, so the search
    # must exhaust its budget without a verified candidate.
    assert diagonal_lyapunov_certificate(ROTATING, budget=10_000, seed=0) is None
    assert not verify_diagonal_certificate(ROTATING, np.ones(2))


@pytest.mark.parametrize("b", [-1e308 * np.eye(3), np.array([[-1e308, 1e308], [0.0, -1e308]])],
                         ids=["diagonal", "triangular"])
def test_search_near_float64_max_finds_a_certificate(b):
    # The candidates reach D ~ e^2, so B D overflows unless B is first
    # divided by its power of two.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d = diagonal_lyapunov_certificate(b, budget=200, seed=1)
        assert d is not None and verify_diagonal_certificate(b, d)


def test_verify_certificate_with_large_d_near_float64_max():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert verify_diagonal_certificate(-1e308 * np.eye(2), [4.0, 4.0])


def test_search_runs_one_cholesky_loop_per_evaluation(monkeypatch):
    # -I certifies at its first candidate; that candidate's scoring pass is
    # also its verdict, so no second factorization runs.
    loops = []
    pivots = matkit.cholesky_pivots
    monkeypatch.setattr(matkit, "cholesky_pivots", lambda m: loops.append(m) or pivots(m))
    assert diagonal_lyapunov_certificate(-np.eye(3), budget=100, seed=0) is not None
    assert len(loops) == 1
    # Without a certificate the search spends its whole budget, one loop each.
    loops.clear()
    assert diagonal_lyapunov_certificate(ROTATING, budget=2000, seed=0) is None
    assert len(loops) == 2000


_B1 = np.array([[-0.21, -0.17, 1.21], [0.09, -2.06, 0.41], [-1.06, -0.07, -0.15]])
_B2 = np.array([[-0.97, 1.88, 1.67, -1.1], [-1.19, -1.9, 0.01, -1.89],
                [0.5, 1.53, -2.53, -0.83], [0.99, 1.11, 1.2, -1.84]])
_B3 = np.array([[-2.15, -0.42, -1.95, 1.33], [1.09, -2.63, 0.61, 1.9],
                [-0.21, 1.38, -1.59, -1.72], [-1.91, -0.63, -1.74, -2.27]])


@pytest.mark.parametrize("b, seed, expected", [
    (_B1 * 1e5, 1, [0.41936893511937656, 2.4243514696577217, 0.48180569502521614]),
    (_B2, 4, [0.9602320535662137, 0.4881184321187966, 1.338184836543589, 0.5440350767614806]),
    (_B3 * 1e-3, 1, [0.5783694202222279, 0.3393595090802571, 0.3053859057799673,
                     0.38645237559144896]),
], ids=["after-refinement", "p4", "after-restarts"])
def test_search_returns_pinned_certificates(b, seed, expected):
    # These D were computed on the unscaled B. Dividing by a power of two
    # with an odd exponent (max|B| in [2^e, 2^(e+1)), e = 17, 1 and -9) rounds
    # the pivots differently, and must still return the same D.
    assert diagonal_lyapunov_certificate(b, budget=400, seed=seed).tolist() == expected


_entries = st.one_of(st.just(0.0), st.floats(1e-3, 2.0), st.floats(-2.0, -1e-3))


@settings(max_examples=40, deadline=None)
@given(b=st.integers(1, 4).flatmap(lambda p: arrays(float, (p, p), elements=_entries)),
       k=st.integers(-1000, 1020), seed=st.integers(0, 4))
def test_certificates_do_not_depend_on_power_of_two_scale(b, k, seed):
    scaled = np.ldexp(b, k)
    d = diagonal_lyapunov_certificate(b, budget=60, seed=seed)
    d_scaled = diagonal_lyapunov_certificate(scaled, budget=60, seed=seed)
    assert (d is None and d_scaled is None) or np.array_equal(d, d_scaled)
    for diag in [np.ones(len(b)), np.arange(1.0, len(b) + 1.0)] + ([] if d is None else [d]):
        assert verify_diagonal_certificate(b, diag) == verify_diagonal_certificate(scaled, diag)


def test_found_certificates_imply_stability():
    rng = np.random.default_rng(19)
    found = 0
    for _ in range(20):
        b = rng.uniform(-2.0, 2.0, (3, 3))
        b[np.arange(3), np.arange(3)] = rng.uniform(-3.0, 1.0, 3)
        d = diagonal_lyapunov_certificate(b, budget=300, seed=1)
        if d is not None:
            assert verify_diagonal_certificate(b, d)
            assert is_stable(b)[0]
            assert screen_principal_submatrices(b).all_proper_principal_submatrices_stable
            found += 1
    assert found > 0
