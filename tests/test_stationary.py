import numpy as np
import pytest
from scipy.linalg import solve_continuous_lyapunov

from oucausal import (
    GaussianLaw,
    Intervention,
    OuModel,
    Verdict,
    controllability_rank,
    intervene_ou,
    spectral_abscissa,
    stationary_distribution,
    stationary_exists,
)
from oucausal import matkit, stability
from oucausal.errors import (
    NonFiniteError,
    NoStationaryDistributionError,
    NotPositiveDefiniteError,
    NotSymmetricError,
)
from util import (
    demo_triangular, gamma_by_quadrature, gershgorin_stable, intervened_stationary_closed_form,
    random_triangular,
)

ROTATING = np.array([[1.0, 7.0], [-1.0, -3.0]])


def _model(b, sigma, a=None, rng=None):
    p = b.shape[0]
    a = np.zeros(p) if a is None else a
    return OuModel(p=p, d=sigma.shape[1], x0=np.zeros(p), A=a, B=b, sigma=sigma)


# --------------------------------------------------------------- GaussianLaw

def test_gaussian_law_validates_cov():
    GaussianLaw(np.zeros(2), np.eye(2))
    # The ridge scales with the trace, which overflows here; the entries do not.
    GaussianLaw(np.zeros(3), np.diag([7e307] * 3))
    with pytest.raises(NotPositiveDefiniteError):
        GaussianLaw(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(NotSymmetricError, match="cov is not symmetric"):
        GaussianLaw(np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_gaussian_law_rejects_indefinite_cov_near_float64_max():
    # Eigenvalues 2.5e308 and -5e307; every entry is finite.
    huge = np.array([[1e308, 1.5e308], [1.5e308, 1e308]])
    with pytest.raises(NotPositiveDefiniteError, match="pivot -inf at step 2"):
        GaussianLaw(np.zeros(2), huge)
    with pytest.raises(NotPositiveDefiniteError, match=(
            r"^cov is not positive semidefinite: pivot -1\.250e\+307 at step 2 ")):
        GaussianLaw(np.zeros(2), huge / 10)
    GaussianLaw(np.zeros(2), np.diag([1e308, 1e308]))


# ------------------------------------------------------- controllability rank

def test_controllability_identity_sigma():
    rng = np.random.default_rng(2)
    b = rng.uniform(-3, 3, (4, 4))
    assert controllability_rank(b, np.eye(4)) == 4
    # The unscaled Krylov matrix [I | B] has sigma_max about 1e200, and the
    # rank tolerance relative to it swallowed the I block: rank 1.
    assert controllability_rank([[-1.0, 1e200], [0.0, -1.0]], np.eye(2)) == 2


def test_controllability_parallel_column():
    assert controllability_rank(np.eye(2), np.array([[1.0], [0.0]])) == 1
    assert controllability_rank(np.eye(2), np.zeros((2, 0))) == 0
    # B sigma = 2^1024 [1, 1]^T overflowed unless B is divided by its power of two.
    assert controllability_rank(2.0**1023 * np.ones((2, 2)), np.ones((2, 1))) == 1


def test_controllability_nilpotent_shift():
    # sigma = [0,1]^T, B sigma = [1,0]^T: together they span R^2.
    b = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert controllability_rank(b, np.array([[0.0], [1.0]])) == 2


@pytest.mark.parametrize("step", [1, 3])
def test_controllability_rank_invariant_under_diagonal_similarity(step):
    # B -> D^-1 B D, sigma -> D^-1 sigma maps the Krylov matrix K to D^-1 K,
    # which has the rank of K.
    rng = np.random.default_rng(6)
    b = rng.normal(size=(4, 4)) - 2.0 * np.eye(4)
    sigma = rng.normal(size=(4, 1))
    b_def = b.copy()
    b_def[2:, :2] = 0.0                  # block triangular: noise reaches
    sigma_def = np.zeros((4, 1))         # only the first two coordinates
    sigma_def[:2, 0] = rng.normal(size=2)
    d = 10.0 ** (step * np.arange(4))
    for bb, ss, rank in [(b, sigma, 4), (b_def, sigma_def, 2)]:
        assert controllability_rank(bb, ss) == rank
        assert controllability_rank(bb / d[:, None] * d, ss / d[:, None]) == rank


# ------------------------------------------------------------------ existence

def test_exists_for_triangular_demo():
    verdict = stationary_exists(demo_triangular())
    assert verdict.verdict is Verdict.EXISTS
    assert verdict.sigma_full_column_span and verdict.b_stable
    assert verdict.controllability_rank == 3


def test_existence_lost_after_pinning():
    m = _model(ROTATING, np.eye(2))
    assert stationary_exists(m).verdict is Verdict.EXISTS
    red, _ = intervene_ou(m, Intervention(2, 0.0))
    verdict = stationary_exists(red)
    assert verdict.sigma_full_column_span          # [1, 0] spans R^1
    assert verdict.verdict is Verdict.NOT_EXISTS   # reduced speed [[1]]


def test_indeterminate_without_full_column_span():
    m = _model(-np.eye(2), np.array([[1.0], [0.0]]))
    verdict = stationary_exists(m)
    assert verdict.verdict is Verdict.INDETERMINATE_COLUMN_SPAN
    assert not verdict.sigma_full_column_span
    assert verdict.controllability_rank == 1


# --------------------------------------------------------------- distribution

def test_distribution_minus_identity():
    m = _model(-np.eye(3), np.eye(3), a=np.array([1.0, -2.0, 0.5]))
    law = stationary_distribution(m)
    assert np.array_equal(law.mean, m.A)
    assert np.allclose(law.cov, 0.5 * np.eye(3), atol=1e-14)


def test_distribution_scalar():
    b, s = -1.7, 0.9
    m = _model(np.array([[b]]), np.array([[s]]))
    law = stationary_distribution(m)
    assert abs(law.cov[0, 0] - (-s**2 / (2 * b))) <= 1e-14


def test_distribution_two_dim_triangular_closed_form():
    b11, b13, b33 = -0.8, 1.3, -2.2
    m = _model(np.array([[b11, b13], [0.0, b33]]), np.eye(2))
    law = stationary_distribution(m)
    off = b13 / (2 * b33 * (b11 + b33))
    expect = np.array([
        [-1 / (2 * b11) - b13**2 / (2 * b11 * b33 * (b11 + b33)), off],
        [off, -1 / (2 * b33)],
    ])
    assert np.max(np.abs(law.cov - expect)) <= 1e-12


def test_distribution_requires_existence():
    with pytest.raises(NoStationaryDistributionError):
        stationary_distribution(_model(np.array([[1.0]]), np.eye(1)))
    with pytest.raises(NoStationaryDistributionError):
        stationary_distribution(_model(-np.eye(2), np.array([[1.0], [0.0]])))


def test_verdict_carries_the_law_iff_it_exists():
    m = _model(np.array([[-1.0, 0.4], [0.2, -2.0]]), np.array([[1.0, 0.0], [0.5, 2.0]]),
               a=np.array([0.3, -1.0]))
    law = stationary_exists(m).law
    expect = stationary_distribution(m)
    assert np.array_equal(law.mean, expect.mean) and np.array_equal(law.cov, expect.cov)
    assert stationary_exists(_model(np.array([[1.0]]), np.eye(1))).law is None
    assert stationary_exists(_model(-np.eye(2), np.array([[1.0], [0.0]]))).law is None


def test_covariance_overflow_keeps_the_verdict():
    # G = 1e220 / (2e-200) I is beyond float64, while B is plainly stable.
    m = _model(-1e-200 * np.eye(2), 1e110 * np.eye(2))
    verdict = stationary_exists(m)
    assert verdict.verdict is Verdict.EXISTS
    assert verdict.b_stable and verdict.law is None
    with pytest.raises(NonFiniteError, match="the stationary covariance overflows float64"):
        stationary_distribution(m)


def test_subnormal_b_has_a_representable_law():
    # X for Q = I is about 2^1059, beyond float64, but G = 2^-21 I is not:
    # the solve runs on B and sigma divided by their powers of two.
    m = _model(-(2.0**-1060) * np.eye(2), 2.0**-540 * np.eye(2))
    verdict = stationary_exists(m)
    assert verdict.verdict is Verdict.EXISTS and verdict.b_stable
    assert np.array_equal(verdict.law.cov, 2.0**-21 * np.eye(2))


@pytest.mark.parametrize("b, sigma", [
    # G near 5e307: sigma sigma^T = 1e308 I no longer overflows on the way.
    ([[-1.0, 0.3], [0.0, -2.0]], 1e154),
    # max|B| >= 2^1023 with (sigma / 2^33)^2 > 2: the right-hand side is
    # scaled with sigma, not multiplied back by B's power of two.
    ([[-1e308, 0.0], [0.0, -1e308]], 1.5e10),
])
def test_covariance_near_the_float64_extremes(b, sigma):
    b = np.array(b)
    law = stationary_exists(_model(b, sigma * np.eye(2))).law
    scale = np.max(np.abs(b))
    expect = solve_continuous_lyapunov(b / scale, -np.eye(2))
    assert np.max(np.abs(law.cov * scale / sigma**2 - expect)) <= 1e-15 * np.max(np.abs(expect))


def test_full_span_fixes_the_controllability_rank():
    # The Krylov matrix [sigma, -sigma, sigma, -sigma] has rank 3 at working
    # precision, but sigma itself spans R^4, so the rank is p.
    verdict = stationary_exists(_model(-np.eye(4), np.diag([1.0, 1.0, 1.0, 1e-15])))
    assert verdict.sigma_full_column_span and verdict.controllability_rank == 4
    assert verdict.verdict is Verdict.EXISTS


@pytest.mark.parametrize("decide", [stationary_exists, stationary_distribution])
def test_stationarity_takes_one_solve_of_one_member(monkeypatch, decide):
    sizes = []
    solve = stability.solve_lyapunov_stack
    monkeypatch.setattr(stability, "solve_lyapunov_stack",
                        lambda b, q, *args: sizes.append(len(b)) or solve(b, q, *args))
    decide(_model(np.array([[-1.0, 0.4], [0.2, -2.0]]), np.array([[1.0, 0.0], [0.5, 2.0]])))
    assert sizes == [1]


def test_lyapunov_residual_and_definiteness_random():
    rng = np.random.default_rng(23)
    for _ in range(100):
        p = int(rng.integers(1, 6))
        b = gershgorin_stable(rng, p)
        sigma = rng.uniform(-1, 1, (p, p))
        while matkit.rank(sigma) < p:
            sigma = rng.uniform(-1, 1, (p, p))
        m = _model(b, sigma)
        law = stationary_distribution(m)
        s = sigma @ sigma.T
        residual = s + b @ law.cov + law.cov @ b.T
        assert np.max(np.abs(residual)) <= 1e-9 * max(1e-300, np.max(np.abs(s)))
        matkit.cholesky(law.cov)   # positive definite


# ----------------------------------------------------------------- quadrature

def test_quadrature_known_target():
    # Composite Simpson error for the e^{-2s} integrand is about
    # 0.044 * h^4: 4.4e-6 at n=400 and 7.1e-9 at n=2000 on [0, 40].
    m = _model(-np.eye(2), np.eye(2))
    coarse = gamma_by_quadrature(m, t_end=40.0, n=400)
    assert np.max(np.abs(coarse - 0.5 * np.eye(2))) <= 5e-6
    fine = gamma_by_quadrature(m, t_end=40.0, n=2000)
    assert np.max(np.abs(fine - 0.5 * np.eye(2))) <= 1e-8


def test_quadrature_agrees_with_lyapunov():
    rng = np.random.default_rng(31)
    for _ in range(20):
        b = gershgorin_stable(rng, 3)
        sigma = rng.uniform(-1, 1, (3, 3))
        m = _model(b, sigma)
        ref = stationary_distribution(m).cov
        g = gamma_by_quadrature(m, t_end=40.0 / abs(spectral_abscissa(b)), n=2000)
        assert np.max(np.abs(g - ref)) <= 1e-6 * np.max(np.abs(ref))


def test_quadrature_truncation_monotone():
    # The missing tail of the integral equals F(T) Gamma F(T)^T with
    # F(T) = exp(T B), so at a fixed step size the truncation gap both
    # shrinks as T grows and obeys that bound. Skew-plus-shift matrices fix
    # the abscissa at -0.3 so the tails stay above discretization noise.
    rng = np.random.default_rng(37)
    step = 0.01
    for _ in range(5):
        k = rng.uniform(-1, 1, (3, 3))
        b = (k - k.T) - 0.3 * np.eye(3)
        m = _model(b, np.eye(3))
        gamma = stationary_distribution(m).cov
        q = {t: gamma_by_quadrature(m, t_end=t, n=round(t / step))
             for t in (4.0, 8.0, 12.0)}
        d_short = np.max(np.abs(q[4.0] - q[8.0]))
        d_long = np.max(np.abs(q[8.0] - q[12.0]))
        assert d_long < d_short
        f = matkit.expm(4.0 * b)
        tail = np.max(np.abs(f @ gamma @ f.T))
        assert d_short <= 1.5 * tail


def test_quadrature_requires_stable_b():
    with pytest.raises(NoStationaryDistributionError):
        gamma_by_quadrature(_model(np.array([[1.0]]), np.eye(1)))


# --------------------------------------------------------------- closed forms

def test_closed_form_mean_unchanged_without_coupling():
    # b12 = 0: pinning X2 cannot move X1's stationary mean.
    b = np.array([[-1.0, 0.0, 0.4], [0.0, -2.0, 0.9], [0.0, 0.0, -1.2]])
    a = np.array([0.3, -0.7, 1.9])
    law = intervened_stationary_closed_form(b, a, c=5.0, which="X2")
    assert np.array_equal(law.mean, [a[0], a[2]])


def test_closed_form_coincident_diagonal():
    # b11 = b33 = b with coupling f reduces to the hand-derived entries.
    b, f = -1.4, 0.6
    bm = np.array([[b, 0.5, f], [0.0, -2.0, 0.1], [0.0, 0.0, b]])
    law = intervened_stationary_closed_form(bm, np.zeros(3), c=2.0, which="X2")
    expect = np.array([
        [-1 / (2 * b) - f**2 / (4 * b**3), f / (4 * b**2)],
        [f / (4 * b**2), -1 / (2 * b)],
    ])
    assert np.max(np.abs(law.cov - expect)) <= 1e-14


def test_closed_form_matches_pipeline():
    rng = np.random.default_rng(41)
    for trial in range(200):
        b = random_triangular(rng, coincident=trial < 40)
        a = rng.uniform(-2, 2, 3)
        c = rng.uniform(-5, 5)
        m = OuModel(p=3, d=3, x0=np.zeros(3), A=a, B=b, sigma=np.eye(3))
        for which, m_idx in (("X2", 2), ("X3", 3)):
            red, _ = intervene_ou(m, Intervention(m_idx, c))
            law = stationary_distribution(red)
            closed = intervened_stationary_closed_form(b, a, c, which)
            scale = np.max(np.abs(closed.cov))
            assert np.max(np.abs(law.mean - closed.mean)) <= 1e-10 * max(
                1.0, np.max(np.abs(closed.mean)))
            assert np.max(np.abs(law.cov - closed.cov)) <= 1e-10 * scale


def test_closed_form_covariance_ignores_c():
    rng = np.random.default_rng(47)
    b = random_triangular(rng)
    a = rng.uniform(-2, 2, 3)
    for which in ("X2", "X3"):
        cov0 = intervened_stationary_closed_form(b, a, 0.0, which).cov
        cov100 = intervened_stationary_closed_form(b, a, 100.0, which).cov
        assert np.max(np.abs(cov0 - cov100)) <= 1e-12


def test_pipeline_covariance_ignores_c():
    rng = np.random.default_rng(53)
    b = random_triangular(rng)
    m = OuModel(p=3, d=3, x0=np.zeros(3), A=rng.uniform(-2, 2, 3), B=b,
                sigma=np.eye(3))
    red0, _ = intervene_ou(m, Intervention(2, 0.0))
    red1, _ = intervene_ou(m, Intervention(2, 100.0))
    g0 = stationary_distribution(red0).cov
    g1 = stationary_distribution(red1).cov
    assert np.max(np.abs(g0 - g1)) <= 1e-12


def test_closed_form_mean_affine_in_c():
    rng = np.random.default_rng(59)
    b = random_triangular(rng)
    a = rng.uniform(-2, 2, 3)
    for which in ("X2", "X3"):
        mu = {c: intervened_stationary_closed_form(b, a, c, which).mean
              for c in (0.0, 1.0, 3.7)}
        lhs = mu[3.7] - mu[0.0]
        rhs = 3.7 * (mu[1.0] - mu[0.0])
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(lhs)))


def test_closed_form_untouched_coordinate_mean():
    # Pinning X2 leaves X3's stationary mean at a3 for every c.
    rng = np.random.default_rng(61)
    b = random_triangular(rng)
    a = rng.uniform(-2, 2, 3)
    for c in (-10.0, 0.0, 10.0):
        law = intervened_stationary_closed_form(b, a, c, "X2")
        assert law.mean[1] == a[2]

