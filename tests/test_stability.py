import numpy as np
import pytest

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


@pytest.mark.parametrize("tol", [0.0, -1.0, np.nan])
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
