import re
import warnings

import numpy as np
import pytest

from oucausal import (
    GeneralSde,
    Intervention,
    OuModel,
    RngStream,
    TimeGrid,
    coupled_intervention_diff,
    exact_transition,
    ou_as_general,
    path_stats,
    simulate_paths,
    spectral_abscissa,
    stationary_distribution,
    uniform_grid,
)
from oucausal import matkit
from oucausal.errors import (
    DimensionError,
    EmptyGridError,
    NonFiniteError,
    NonPositiveStepError,
    SimulationOverflowError,
)
from util import demo_triangular, gershgorin_stable


def _simpson_covariance(model, t_end, n):
    # Independent quadrature oracle: integrate e^{sB} S e^{sB^T} on [0, t_end]
    # evaluating the exponential afresh at every node.
    s_mat = model.sigma @ model.sigma.T
    h = t_end / n
    total = np.zeros_like(s_mat)
    for k in range(n + 1):
        e = matkit.expm(k * h * model.B)
        g = e @ s_mat @ e.T
        w = 1.0 if k in (0, n) else (4.0 if k % 2 == 1 else 2.0)
        total += w * g
    return (h / 3.0) * total


# ----------------------------------------------------------------- grids, rng

def test_grid_validation():
    with pytest.raises(NonPositiveStepError):
        TimeGrid(np.array([0.0, 1.0, 1.0]))
    with pytest.raises(NonPositiveStepError):
        TimeGrid(np.array([0.5, 1.0]))
    with pytest.raises(EmptyGridError):
        TimeGrid(np.array([]))
    with pytest.raises(NonPositiveStepError):
        uniform_grid(1.0, 0)


def test_rng_stream_reproducible_and_sliceable():
    a = RngStream(42, 3).normals(10)
    b = RngStream(42, 3).normals(10)
    assert np.array_equal(a, b)
    assert np.array_equal(a[4:], RngStream(42, 3).normals(6, start=4))
    assert not np.array_equal(a, RngStream(42, 4).normals(10))
    assert not np.array_equal(a, RngStream(43, 3).normals(10))


def test_rng_stream_moments_and_independence():
    x = RngStream(7, 0).normals(200_000)
    assert abs(x.mean()) < 0.01
    assert abs(x.var() - 1.0) < 0.02
    y = RngStream(7, 1).normals(200_000)
    assert abs(np.corrcoef(x, y)[0, 1]) < 0.01


# ------------------------------------------------------------ exact transition

def test_transition_short_time_limit():
    m = demo_triangular()
    f, g, q = exact_transition(m, 1e-8)
    assert np.max(np.abs(f - np.eye(3))) <= 1e-6
    assert np.max(np.abs(g)) <= 1e-6
    assert np.max(np.abs(q)) <= 1e-6


def test_transition_scalar_variance():
    b, s = -1.3, 0.8
    m = OuModel(p=1, d=1, x0=[0.0], A=[0.0], B=[[b]], sigma=[[s]])
    for t in (0.1, 1.0, 5.0):
        _, _, q = exact_transition(m, t)
        expect = s**2 * (np.exp(2 * b * t) - 1.0) / (2 * b)
        assert abs(q[0, 0] - expect) <= 1e-12


def test_transition_covariance_matches_quadrature():
    rng = np.random.default_rng(71)
    for _ in range(5):
        b = rng.uniform(-1.5, 1.5, (3, 3))
        sigma = rng.uniform(-1, 1, (3, 3))
        m = OuModel(p=3, d=3, x0=np.zeros(3), A=np.zeros(3), B=b, sigma=sigma)
        t = float(rng.uniform(0.3, 1.2))
        _, _, q = exact_transition(m, t)
        oracle = _simpson_covariance(m, t, 400)
        assert np.max(np.abs(q - oracle)) <= 1e-8 * max(1.0, np.max(np.abs(q)))


def test_transition_semigroup_identities():
    rng = np.random.default_rng(73)
    for _ in range(20):
        b = rng.uniform(-2.0, 2.0, (3, 3))
        sigma = rng.uniform(-1.0, 1.0, (3, 3))
        m = OuModel(p=3, d=3, x0=np.zeros(3), A=rng.uniform(-1, 1, 3),
                    B=b, sigma=sigma)
        f_s, _, q_s = exact_transition(m, 0.3)
        f_t, _, q_t = exact_transition(m, 0.7)
        f_st, _, q_st = exact_transition(m, 1.0)
        assert np.max(np.abs(f_t @ f_s - f_st)) <= 1e-9
        assert np.max(np.abs(f_t @ q_s @ f_t.T + q_t - q_st)) <= 1e-9


def test_transition_converges_to_stationary_covariance():
    rng = np.random.default_rng(79)
    for _ in range(5):
        b = gershgorin_stable(rng, 3)
        m = OuModel(p=3, d=3, x0=np.zeros(3), A=np.zeros(3), B=b, sigma=np.eye(3))
        gamma = stationary_distribution(m).cov
        _, _, q = exact_transition(m, 40.0 / abs(spectral_abscissa(b)))
        assert np.max(np.abs(q - gamma)) <= 1e-6 * np.max(np.abs(gamma))


def test_transition_rejects_nonpositive_time():
    with pytest.raises(NonPositiveStepError):
        exact_transition(demo_triangular(), 0.0)


# ------------------------------------------------------------------ simulation

def test_noise_free_exact_is_deterministic_flow():
    m = OuModel(p=2, d=1, x0=[2.0, -1.0], A=[0.5, 0.5],
                B=[[-1.0, 0.3], [0.0, -0.7]], sigma=np.zeros((2, 1)))
    grid = uniform_grid(2.0, 8)
    bundle = simulate_paths(m, grid, 3, seed=0, method="exact")
    for k, t in enumerate(grid.t):
        expect = m.A + matkit.expm(t * m.B) @ (m.x0 - m.A)
        for i in range(3):
            assert np.max(np.abs(bundle.values[i, k] - expect)) <= 1e-12


def test_noise_free_euler_matches_recursion():
    m = OuModel(p=1, d=1, x0=[1.0], A=[0.0], B=[[-1.0]], sigma=[[0.0]])
    grid = uniform_grid(1.0, 10)
    bundle = simulate_paths(m, grid, 1, seed=5, method="euler")
    x = 1.0
    for k in range(10):
        x = x + (-1.0) * x * 0.1
        assert abs(bundle.values[0, k + 1, 0] - x) <= 1e-15


def test_exact_sampler_hits_stationary_moments():
    # Scalar OU run far past the mixing time: empirical mean and variance
    # must sit within 4 standard errors of the stationary values.
    b, s = -0.8, 1.1
    m = OuModel(p=1, d=1, x0=[3.0], A=[0.7], B=[[b]], sigma=[[s]])
    t_end = 50.0 / abs(b)
    grid = TimeGrid(np.array([0.0, t_end]))
    n = 100_000
    bundle = simulate_paths(m, grid, n, seed=101, method="exact")
    x = bundle.values[:, -1, 0]
    var = -s**2 / (2 * b)
    se_mean = np.sqrt(var / n)
    assert abs(x.mean() - 0.7) <= 4 * se_mean
    se_var = var * np.sqrt(2.0 / (n - 1))
    assert abs(x.var(ddof=1) - var) <= 4 * se_var


def test_exact_on_nonuniform_grid():
    # Irregular spacing exercises the per-step transition cache; the law at
    # the final time still matches a single long step.
    m = demo_triangular(x0=(1.0, 0.0, -1.0))
    grid = TimeGrid(np.array([0.0, 0.1, 0.5, 2.0]))
    many = simulate_paths(m, grid, 5_000, seed=13, method="exact")
    assert many.values.shape == (5_000, 4, 3)
    one = simulate_paths(m, TimeGrid(np.array([0.0, 2.0])), 5_000, seed=14,
                         method="exact")
    sa, sb = path_stats(many, -1), path_stats(one, -1)
    combined = np.sqrt(sa.se_mean**2 + sb.se_mean**2)
    assert np.all(np.abs(sa.mean - sb.mean) <= 5 * combined)


def test_exactness_in_law_under_grid_refinement():
    # The exact sampler's marginal law at t does not depend on the grid:
    # a 2-point grid and a 100-step grid agree within Monte Carlo error.
    m = demo_triangular(x0=(1.0, -1.0, 0.5))
    n = 40_000
    coarse = simulate_paths(m, TimeGrid(np.array([0.0, 1.0])), n, seed=11,
                            method="exact")
    fine = simulate_paths(m, uniform_grid(1.0, 100), n, seed=12, method="exact")
    sa = path_stats(coarse, -1)
    sb = path_stats(fine, -1)
    combined = np.sqrt(sa.se_mean**2 + sb.se_mean**2)
    assert np.all(np.abs(sa.mean - sb.mean) <= 5 * combined)


def test_euler_weak_order_one():
    m = OuModel(p=1, d=1, x0=[5.0], A=[0.0], B=[[-1.0]], sigma=[[1.0]])
    exact_mean = np.exp(-1.0) * 5.0
    errors = []
    for h in (0.1, 0.05, 0.025):
        bundle = simulate_paths(m, uniform_grid(1.0, round(1 / h)), 400_000,
                                seed=123, method="euler")
        errors.append(abs(bundle.values[:, -1, 0].mean() - exact_mean))
    for coarse, fine in zip(errors, errors[1:]):
        assert 1.6 <= coarse / fine <= 2.6


def test_simulation_determinism():
    m = demo_triangular()
    grid = uniform_grid(1.0, 20)
    for method in ("exact", "euler"):
        a = simulate_paths(m, grid, 50, seed=9, method=method)
        b = simulate_paths(m, grid, 50, seed=9, method=method)
        assert np.array_equal(a.values, b.values)
        c = simulate_paths(m, grid, 50, seed=10, method=method)
        assert not np.array_equal(a.values, c.values)


def test_exact_requires_ou_model():
    sde = ou_as_general(demo_triangular())
    with pytest.raises(DimensionError):
        simulate_paths(sde, uniform_grid(1.0, 5), 2, seed=0, method="exact")


def test_general_euler_matches_ou_euler():
    m = demo_triangular(x0=(0.2, -0.4, 1.0))
    grid = uniform_grid(0.5, 10)
    a = simulate_paths(m, grid, 20, seed=3, method="euler")
    b = simulate_paths(ou_as_general(m), grid, 20, seed=3, method="euler")
    assert np.max(np.abs(a.values - b.values)) <= 1e-12


def test_general_euler_pure_drift():
    sde = GeneralSde(p=1, d=1, x0=[0.0], coef=lambda x: np.array([[2.0]]))
    bundle = simulate_paths(sde, uniform_grid(1.0, 4), 1, seed=0, method="euler")
    assert np.allclose(bundle.values[0, :, 0], [0.0, 0.5, 1.0, 1.5, 2.0])


def test_general_euler_overflow_names_first_divergent_time():
    # Unstable B: with dt = 2 the Euler states double every step.
    m = OuModel(p=2, d=2, x0=[0.0, 0.0], A=[0.0, 0.0],
                B=[[0.5, 0.2], [0.0, -1.0]], sigma=np.eye(2))
    sde = ou_as_general(m)
    grid = uniform_grid(6000.0, 3000)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SimulationOverflowError) as info:
            simulate_paths(sde, grid, 2, seed=1, method="euler")
    t_named = float(re.search(r"t = (\S+);", str(info.value))[1])
    k = int(np.searchsorted(grid.t, t_named))
    assert k > 0 and grid.t[k] == t_named
    # Draws depend only on (seed, path, step), so a prefix grid replays the
    # run: it is finite before t_k and diverges one step after it.
    simulate_paths(sde, TimeGrid(grid.t[:k]), 2, seed=1, method="euler")
    with pytest.raises(SimulationOverflowError):
        simulate_paths(sde, TimeGrid(grid.t[:k + 2]), 2, seed=1, method="euler")


def test_general_euler_nonfinite_coefficient_at_x0():
    sde = GeneralSde(p=1, d=1, x0=[0.0], coef=lambda x: np.array([[np.inf]]))
    with pytest.raises(NonFiniteError):
        simulate_paths(sde, uniform_grid(1.0, 4), 1, seed=0, method="euler")


# --------------------------------------------------------- coupled simulation

def test_coupled_pinned_coordinate_tracks_x():
    m = demo_triangular(x0=(0.3, 1.5, -0.2))
    iv = Intervention(2, 4.0)
    grid = uniform_grid(1.0, 30)
    diff = coupled_intervention_diff(m, iv, grid, 25, seed=21)
    assert np.all(diff.values[:, 0, 1] == 4.0 - 1.5)
    base = simulate_paths(m, grid, 25, seed=21, method="euler")
    assert np.array_equal(diff.values[:, :, 1], 4.0 - base.values[:, :, 1])


def test_coupled_diagonal_null_channel():
    # Diagonal B and shared noise: unpinned coordinates cancel exactly.
    rng = np.random.default_rng(83)
    for m_idx in (1, 2, 3, 4):
        sigma = rng.uniform(-1.0, 1.0, (4, 4))
        model = OuModel(p=4, d=4, x0=rng.uniform(-1, 1, 4),
                        A=rng.uniform(-1, 1, 4),
                        B=np.diag(rng.uniform(-3.0, -0.5, 4)), sigma=sigma)
        diff = coupled_intervention_diff(model, Intervention(m_idx, 2.0),
                                         uniform_grid(1.0, 40), 20, seed=m_idx)
        others = [i for i in range(4) if i != m_idx - 1]
        assert np.all(diff.values[:, :, others] == 0.0)


def test_coupled_pin_at_start_value():
    # c = x0^m with diagonal B and A^m = x0^m: the pinned coordinate of
    # Y - X is the deviation of X^m from its start, hence 0 at t = 0.
    model = OuModel(p=2, d=2, x0=[1.0, 0.5], A=[0.0, 0.5],
                    B=np.diag([-1.0, -2.0]), sigma=np.eye(2))
    diff = coupled_intervention_diff(model, Intervention(2, 0.5),
                                     uniform_grid(1.0, 20), 10, seed=4)
    assert np.all(diff.values[:, 0, 1] == 0.0)
    base = simulate_paths(model, uniform_grid(1.0, 20), 10, seed=4, method="euler")
    assert np.array_equal(diff.values[:, :, 1], 0.5 - base.values[:, :, 1])


def test_coupled_nondiagonal_channel_active():
    m = demo_triangular()
    diff = coupled_intervention_diff(m, Intervention(2, 5.0),
                                     uniform_grid(1.0, 40), 10, seed=2)
    assert np.max(np.abs(diff.values[:, -1, 0])) > 0.0


# ----------------------------------------------------------------- statistics

def test_path_stats_constant_bundle():
    m = OuModel(p=2, d=1, x0=[1.0, 2.0], A=[1.0, 2.0],
                B=-np.eye(2), sigma=np.zeros((2, 1)))
    bundle = simulate_paths(m, uniform_grid(1.0, 3), 10, seed=0, method="exact")
    stats = path_stats(bundle, -1)
    assert np.max(np.abs(stats.cov)) <= 1e-28


def test_path_stats_two_sample_formula():
    grid = TimeGrid(np.array([0.0]))
    v1 = np.array([1.0, -2.0])
    v2 = np.array([3.0, 4.0])
    bundle_values = np.stack([v1, v2])[:, None, :]
    from oucausal.simulate import PathBundle
    bundle = PathBundle(grid, bundle_values, ("X1", "X2"))
    stats = path_stats(bundle, 0)
    assert np.allclose(stats.mean, 0.5 * (v1 + v2))
    assert np.allclose(stats.cov, 0.5 * np.outer(v1 - v2, v1 - v2))


def test_path_stats_matches_stationary_law():
    m = demo_triangular()
    grid = TimeGrid(np.array([0.0, 50.0]))
    bundle = simulate_paths(m, grid, 20_000, seed=31, method="exact")
    stats = path_stats(bundle, -1)
    law = stationary_distribution(m)
    assert np.all(np.abs(stats.mean - law.mean) <= 4 * stats.se_mean)


def test_path_stats_validation():
    m = demo_triangular()
    bundle = simulate_paths(m, uniform_grid(1.0, 2), 5, seed=0, method="exact")
    with pytest.raises(IndexError):
        path_stats(bundle, 7)
    single = simulate_paths(m, uniform_grid(1.0, 2), 1, seed=0, method="exact")
    with pytest.raises(DimensionError):
        path_stats(single, 0)
