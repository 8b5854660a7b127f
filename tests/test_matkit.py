import warnings

import numpy as np
import pytest

from oucausal import matkit
from oucausal.errors import (
    DimensionError,
    NonFiniteError,
    NotPositiveDefiniteError,
    NotSymmetricError,
    SingularMatrixError,
)


# ---------------------------------------------------------------- solve_linear

def test_solve_identity():
    v = np.array([3.0, -1.0, 2.5])
    assert np.allclose(matkit.solve_linear(np.eye(3), v), v)


def test_solve_diagonal():
    x = matkit.solve_linear([[2.0, 0.0], [0.0, 4.0]], [2.0, 8.0])
    assert np.allclose(x, [1.0, 2.0])


def test_solve_residual_on_rotation_like_matrix():
    m = np.array([[1.0, 7.0], [-1.0, -3.0]])
    rhs = np.array([1.0, 0.0])
    x = matkit.solve_linear(m, rhs)
    assert np.max(np.abs(m @ x - rhs)) <= 1e-12


def test_solve_matrix_rhs_shape():
    m = np.array([[2.0, 1.0], [0.0, 1.0]])
    rhs = np.eye(2)
    x = matkit.solve_linear(m, rhs)
    assert x.shape == (2, 2)
    assert np.allclose(m @ x, rhs)


def test_solve_singular_raises():
    with pytest.raises(SingularMatrixError):
        matkit.solve_linear([[1.0, 2.0], [2.0, 4.0]], [1.0, 1.0])
    with pytest.raises(SingularMatrixError):
        matkit.solve_linear(np.zeros((2, 2)), [1.0, 1.0])


def test_solve_shape_and_finite_validation():
    with pytest.raises(DimensionError):
        matkit.solve_linear(np.ones((2, 3)), [1.0, 1.0])
    with pytest.raises(DimensionError):
        matkit.solve_linear(np.eye(2), [1.0, 1.0, 1.0])
    with pytest.raises(NonFiniteError):
        matkit.solve_linear([[np.nan, 0.0], [0.0, 1.0]], [1.0, 1.0])


def test_solve_residual_bound_random_well_conditioned():
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 1000:
        n = int(rng.integers(1, 7))
        m = rng.uniform(-2.0, 2.0, (n, n))
        if np.linalg.cond(m) >= 1e6:
            continue
        rhs = rng.uniform(-2.0, 2.0, n)
        x = matkit.solve_linear(m, rhs)
        bound = 1e-10 * max(1.0, np.linalg.norm(m, np.inf) * np.max(np.abs(x)))
        assert np.max(np.abs(m @ x - rhs)) <= bound
        checked += 1


# ----------------------------------------------------------------------- expm

def test_expm_zero_matrix():
    assert np.array_equal(matkit.expm(np.zeros((3, 3))), np.eye(3))
    assert matkit.expm(np.zeros((0, 0))).shape == (0, 0)


def test_expm_with_entries_near_float64_max():
    # 1025 squarings: 2.0**1025 overflowed where M is scaled down.
    assert np.array_equal(matkit.expm([[-1e308]]), [[0.0]])


def test_expm_diagonal():
    e = matkit.expm(np.diag([0.3, -1.2]))
    assert np.allclose(e, np.diag([np.exp(0.3), np.exp(-1.2)]), rtol=1e-14)


def test_expm_triangular_closed_form():
    # exp(s [[b11, b13], [0, b33]]) has off-diagonal
    # zeta (e^{s b11} - e^{s b33}) with zeta = b13 / (b11 - b33).
    for b11, b13, b33, s in [(-1.0, 0.7, -2.5, 0.9), (0.4, -1.1, 1.3, 2.0),
                             (-0.2, 3.0, -0.1, 5.0)]:
        zeta = b13 / (b11 - b33)
        got = matkit.expm(s * np.array([[b11, b13], [0.0, b33]]))
        expect = np.array([
            [np.exp(s * b11), zeta * (np.exp(s * b11) - np.exp(s * b33))],
            [0.0, np.exp(s * b33)],
        ])
        assert np.max(np.abs(got - expect)) <= 1e-12 * np.max(np.abs(expect))


def test_expm_semigroup_random():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        b = rng.uniform(-1.0, 1.0, (n, n))
        nrm = np.linalg.norm(b, 1)
        if nrm > 0:
            b *= rng.uniform(0.1, 5.0) / nrm
        s, t = rng.uniform(0.2, 2.0, 2)
        lhs = matkit.expm(s * b) @ matkit.expm(t * b)
        rhs = matkit.expm((s + t) * b)
        assert np.max(np.abs(lhs - rhs)) <= 1e-9 * max(1.0, np.max(np.abs(rhs)))


def test_expm_norm_fifty_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(7)
    for _ in range(3):
        m = rng.uniform(-1.0, 1.0, (3, 3))
        m *= 50.0 / np.linalg.norm(m, 1)
        got = matkit.expm(m)
        with mpmath.workdps(60):
            ref = mpmath.expm(mpmath.matrix(m.tolist()))
            ref = np.array([[float(ref[i, j]) for j in range(3)] for i in range(3)])
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


# ------------------------------------------------------------------- cholesky

def test_cholesky_identity():
    assert np.allclose(matkit.cholesky(np.eye(4)), np.eye(4))


def test_cholesky_hand_checked():
    low = matkit.cholesky([[4.0, 2.0], [2.0, 5.0]])
    assert np.allclose(low, [[2.0, 0.0], [1.0, 2.0]])


def test_cholesky_indefinite():
    with pytest.raises(NotPositiveDefiniteError):
        matkit.cholesky([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1


def test_cholesky_overflowing_pivot_raises_without_warning():
    # L21 = 1e300 / sqrt(1e285), so the second pivot 1 - L21^2 overflows.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotPositiveDefiniteError):
            matkit.cholesky([[1e285, 1e300], [1e300, 1.0]])


HUGE_INDEFINITE = np.array([[1e308, 1.5e308], [1.5e308, 1e308]])  # eigenvalues 2.5e308, -5e307


def test_cholesky_rejects_indefinite_matrix_near_float64_max():
    # Symmetrizing as 0.5 * (M + M^T) made every entry inf and the pivots
    # [inf, nan]; the NaN passed the `<= limit` test.
    with pytest.raises(NotPositiveDefiniteError, match="pivot -inf at step 2"):
        matkit.cholesky(HUGE_INDEFINITE)
    with pytest.raises(NotPositiveDefiniteError, match=(
            r"^pivot -1\.250e\+307 at step 2 is below the threshold 6\.661e\+291$")):
        matkit.cholesky(HUGE_INDEFINITE / 10)
    low = matkit.cholesky(np.diag([1e308, 1e308]))
    assert np.array_equal(low, np.diag([1e154, 1e154]))


def test_cholesky_nan_pivot_fails(monkeypatch):
    def nan_second_pivot(m):
        return np.eye(2), np.array([1.0, np.nan])

    monkeypatch.setattr(matkit, "cholesky_pivots", nan_second_pivot)
    with pytest.raises(NotPositiveDefiniteError, match="pivot nan at step 2"):
        matkit.cholesky(np.eye(2))


def test_cholesky_pivots_halving_first_matches_halving_the_sum():
    # 0.5 * M + 0.5 * M^T is 0.5 * (M + M^T) bit for bit wherever the sum
    # is finite and no entry is subnormal.
    rng = np.random.default_rng(8)
    for _ in range(300):
        n = int(rng.integers(1, 7))
        low = np.tril(rng.standard_normal((n, n)))
        low[np.arange(n), np.arange(n)] = rng.uniform(0.5, 2.0, n)
        m = (low @ low.T + 1e-3 * rng.standard_normal((n, n))) * 10.0 ** rng.uniform(-150, 150)
        assert np.array_equal(0.5 * m + 0.5 * m.T, 0.5 * (m + m.T))
        got, reference = matkit.cholesky_pivots(m), _halved_sum_pivots(m, matkit.pivot_limit(m))
        assert all(np.array_equal(g, r) for g, r in zip(got, reference))


def _halved_sum_pivots(m, limit):
    a = 0.5 * (m + m.T)
    n = a.shape[0]
    low, pivots = np.zeros_like(a), np.empty(n)
    for j in range(n):
        pivots[j] = a[j, j] - low[j, :j] @ low[j, :j]
        if pivots[j] > limit:
            low[j, j] = np.sqrt(pivots[j])
            low[j + 1:, j] = (a[j + 1:, j] - low[j + 1:, :j] @ low[j, :j]) / low[j, j]
    return low, pivots


def test_cholesky_asymmetric_rejected():
    with pytest.raises(NotSymmetricError):
        matkit.cholesky([[1.0, 0.1], [0.0, 1.0]])


def test_cholesky_roundtrip_random():
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        low = np.tril(rng.uniform(-1.0, 1.0, (n, n)))
        low[np.arange(n), np.arange(n)] = rng.uniform(0.2, 2.0, n)
        m = low @ low.T
        back = matkit.cholesky(m)
        assert np.max(np.abs(back - low)) <= 1e-10 * max(1.0, np.max(np.abs(low)))


# ----------------------------------------------------------------------- rank

def test_rank_identity_and_zero():
    assert matkit.rank(np.eye(5)) == 5
    assert matkit.rank(np.zeros((3, 4))) == 0


def test_rank_proportional_rows():
    assert matkit.rank([[1.0, 2.0], [2.0, 4.0]]) == 1


def test_rank_controllability_with_identity_sigma():
    # [I | B | ...] always spans R^p regardless of B.
    rng = np.random.default_rng(9)
    for _ in range(50):
        p = int(rng.integers(1, 6))
        b = rng.uniform(-3.0, 3.0, (p, p))
        blocks = [np.eye(p)]
        for _ in range(p - 1):
            blocks.append(b @ blocks[-1])
        assert matkit.rank(np.hstack(blocks)) == p
