import re
import warnings

import numpy as np
import pytest
from scipy import stats
from scipy.linalg import expm

from oucausal import (
    GeneralSde,
    Intervention,
    OuModel,
    TimeGrid,
    coupled_intervention_diff,
    exact_transition,
    intervene_general,
    ou_as_general,
    path_stats,
    simulate_paths,
    spectral_abscissa,
    stationary_distribution,
    uniform_grid,
)
from oucausal import matkit, simulate
from oucausal.simulate import _brownian
from oucausal.errors import (
    DimensionError,
    EmptyGridError,
    NonFiniteError,
    NonPositiveStepError,
    SimulationOverflowError,
)
from util import demo_triangular, gershgorin_stable, step_draws


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


def test_step_normals_reproducible_and_keyed_by_seed_and_step():
    a = simulate._step_normals(42, 3, 2, 5)
    assert np.array_equal(a, simulate._step_normals(42, 3, 2, 5))
    assert not np.array_equal(a, simulate._step_normals(42, 4, 2, 5))
    assert not np.array_equal(a, simulate._step_normals(43, 3, 2, 5))


def test_step_normals_moments_and_independence():
    x = simulate._step_normals(7, 0, 1, 200_000)[0]
    assert abs(x.mean()) < 0.01
    assert abs(x.var() - 1.0) < 0.02
    y = simulate._step_normals(7, 1, 1, 200_000)[0]
    assert abs(np.corrcoef(x, y)[0, 1]) < 0.01


def _layout_runs():
    # (name, run(n_paths) -> values): every scheme that draws step normals.
    m = demo_triangular(x0=(0.2, -0.4, 1.0))
    rng = np.random.default_rng(31)
    wide = OuModel(p=3, d=5, x0=[0.1, 0.0, -0.2], A=[1.0, 0.0, -1.0],
                   B=gershgorin_stable(rng, 3), sigma=rng.uniform(-1, 1, (3, 5)))
    grid = uniform_grid(0.9, 12)
    return {
        "exact": lambda n: simulate_paths(m, grid, n, 21, method="exact").values,
        "euler": lambda n: simulate_paths(wide, grid, n, 21, method="euler").values,
        "general_euler": lambda n: simulate_paths(ou_as_general(wide), grid, n, 21,
                                                  method="euler").values,
        "coupled": lambda n: simulate.run(wide, grid, n, 21, iv=Intervention(2, 0.5)),
    }


@pytest.mark.parametrize("scheme", list(_layout_runs()))
def test_first_paths_do_not_depend_on_path_count(scheme):
    run = _layout_runs()[scheme]
    many = run(37)
    for n in (2, 36):
        assert np.array_equal(run(n), many[:n])
    # The draws of a one-path run are the same, but numpy computes a
    # one-row matrix product with a different BLAS kernel, so its states
    # may differ from path 0 of a larger run in the last bits.
    assert np.allclose(run(1), many[:1], rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("scheme", list(_layout_runs()))
def test_rng_stream_is_the_step_noise_of_each_path(scheme, monkeypatch):
    draws = []

    def spy(seed, k, n_paths, count):
        z = step_normals(seed, k, n_paths, count)
        draws.append((seed, k, z.copy()))
        return z

    step_normals = simulate._step_normals
    monkeypatch.setattr(simulate, "_step_normals", spy)
    _layout_runs()[scheme](4)
    assert [k for _, k, _ in draws] == list(range(12))
    for seed, k, z in draws:
        count = z.shape[1]
        assert count == (3 if scheme == "exact" else 5)
        assert np.array_equal(z, step_draws(seed, k, 4, count))


def test_euler_first_step_is_rng_stream_zero():
    # With B = 0, sigma = I, x0 = 0 and dt = 1 the first Euler state is the
    # step-0 noise itself.
    m = OuModel(p=2, d=2, x0=[0.0, 0.0], A=[0.0, 0.0], B=np.zeros((2, 2)),
                sigma=np.eye(2))
    values = simulate_paths(m, uniform_grid(1.0, 1), 3, seed=5, method="euler").values
    assert np.array_equal(values[:, 1], step_draws(5, 0, 3, 2))


def test_step_normals_are_standard_normal_and_uncorrelated():
    # 60 steps of 2000 paths: 120,000 pooled draws.
    z = np.stack([simulate._step_normals(2024, k, 2000, 1)[:, 0] for k in range(60)],
                 axis=1)
    assert stats.kstest(z.ravel(), stats.norm.cdf).pvalue > 1e-3
    across_steps = np.corrcoef(z[:, :-1].ravel(), z[:, 1:].ravel())[0, 1]
    across_paths = np.corrcoef(z[:-1].ravel(), z[1:].ravel())[0, 1]
    assert abs(across_steps) < 0.01
    assert abs(across_paths) < 0.01


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
    with pytest.raises(NonFiniteError):
        exact_transition(demo_triangular(), np.inf)


def test_transition_over_a_horizon_near_float64_max():
    # t |B|_1 overflows, so the doubling count comes from mantissas and
    # exponents; at t = 1e308 the law is the stationary one.
    m = OuModel(p=2, d=2, x0=np.zeros(2), A=np.ones(2), B=[[-1.0, 0.5], [0.0, -2.0]],
                sigma=np.eye(2))
    f, g, q = exact_transition(m, 1e308)
    assert not f.any() and np.array_equal(g, m.A)
    gamma = stationary_distribution(m).cov
    assert np.max(np.abs(q - gamma)) <= 1e-15 * np.max(np.abs(gamma))


def test_transition_with_b_near_float64_max():
    # 1024 doublings: 2.0**1024 overflowed where the step is halved. Only the
    # fast coordinate is checked; at that step the slow one rounds to F = 1.
    m = OuModel(p=2, d=2, x0=np.zeros(2), A=np.zeros(2), B=np.diag([-1e308, -1.0]),
                sigma=np.eye(2))
    f, _, q = exact_transition(m, 1.0)
    assert np.all(np.isfinite(f)) and np.all(np.isfinite(q))
    assert f[0, 0] == 0.0 and abs(q[0, 0] - 5e-309) <= 1e-14 * 5e-309


@pytest.mark.parametrize("b, t", [
    # |B|_1 = 2e308 overflows; the halved B's norm does not.
    ([[-1e308, 0.0], [1e308, -1e308]], 3e-308),
    ([[-1e308, 0.0], [1e308, -1e308]], 1e-307),
    ([[-1e308, 0.0], [1e308, -1e308]], 1.0),
    ([[-1.0, 0.5], [0.2, -2.0]], 0.7),
])
def test_transition_of_half_b_over_twice_the_time(b, t):
    # F(B, t) = F(B/2, 2t) and Q(B/2, 2t) = 2 Q(B, t).
    b = np.array(b)
    full, half = (OuModel(p=2, d=2, x0=np.zeros(2), A=np.ones(2), B=m,
                          sigma=1e150 * np.eye(2)) for m in (b, b / 2))
    f, _, q = exact_transition(full, t)
    f_half, _, q_half = exact_transition(half, 2 * t)
    assert np.max(np.abs(f - f_half)) <= 1e-14
    assert np.max(np.abs(2 * q - q_half)) <= 1e-14 * np.max(np.abs(q_half))



def _van_loan(model, t):
    # scipy oracle: exp(t [[B, S], [0, -B^T]]) = [[F, E12], [0, *]], Q = E12 F^T.
    p = model.p
    block = np.zeros((2 * p, 2 * p))
    block[:p, :p] = model.B
    block[:p, p:] = model.sigma @ model.sigma.T
    block[p:, p:] = -model.B.T
    e = expm(t * block)
    f = e[:p, :p]
    return f, (np.eye(p) - f) @ model.A, e[:p, p:] @ f.T


def _counted_transitions(monkeypatch):
    calls = []
    original = simulate.exact_transition

    def counted(model, t):
        out = original(model, t)
        calls.append((t, out))
        return out

    monkeypatch.setattr(simulate, "exact_transition", counted)
    return calls


@pytest.mark.parametrize("grid", [uniform_grid(1.0, 50),
                                  TimeGrid(np.linspace(0.0, 1.0, 51))])
def test_exact_uniform_grid_computes_one_transition(monkeypatch, grid):
    # np.diff of this grid holds 7 distinct values; one step serves them all.
    m = demo_triangular(x0=(1.0, 0.0, -1.0))
    calls = _counted_transitions(monkeypatch)
    simulate_paths(m, grid, 4, seed=3, method="exact")
    assert len(calls) == 1
    t, (f, g, q) = calls[0]
    assert t == 1.0 / 50
    f_ref, g_ref, q_ref = _van_loan(m, t)
    assert np.max(np.abs(f - f_ref)) <= 1e-13
    assert np.max(np.abs(g - g_ref)) <= 1e-13
    assert np.max(np.abs(q - q_ref)) <= 1e-13


def test_exact_timegrid_computes_one_transition_per_step_length(monkeypatch):
    m = demo_triangular(x0=(1.0, 0.0, -1.0))
    calls = _counted_transitions(monkeypatch)
    t = np.array([0.0, 0.1, 0.5, 2.0, 2.4])
    simulate_paths(m, TimeGrid(t), 4, seed=3, method="exact")
    assert sorted(dt for dt, _ in calls) == sorted(set(np.diff(t).tolist()))
    for dt, (f, g, q) in calls:
        f_ref, g_ref, q_ref = _van_loan(m, dt)
        assert np.max(np.abs(f - f_ref)) <= 1e-13
        assert np.max(np.abs(g - g_ref)) <= 1e-13
        assert np.max(np.abs(q - q_ref)) <= 1e-13

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



# The per-path Euler loop for a general SDE, kept as the reference for the
# batched step: `coef` maps one state to its p x d coefficient, and each
# path takes its own matrix-vector step.
def _reference_general_euler(coef, p, d, x0, grid, n_paths, seed):
    t = grid.t
    x = np.repeat(np.asarray(x0, dtype=float)[None, :], n_paths, axis=0)
    values = [x]
    dz = np.empty((n_paths, d))
    for k in range(len(t) - 1):
        dt = float(t[k + 1] - t[k])
        dz[:, 0] = dt
        if d > 1:
            dz[:, 1:] = _brownian(seed, k, n_paths, d - 1, dt)
        x = x.copy()
        for i in range(n_paths):
            x[i] = x[i] + matkit.as_matrix(coef(x[i]), p, d, "coef(x)") @ dz[i]
        values.append(x)
    return np.stack(values, axis=1)


def _reference_ou_coef(model):
    # [B (x - A) | sigma] for one state.
    def coef(x):
        out = np.empty((model.p, 1 + model.d))
        out[:, 0] = model.B @ (x - model.A)
        out[:, 1:] = model.sigma
        return out
    return coef


def _reference_pinned_coef(coef, p, iv):
    keep = np.array([i for i in range(p) if i != iv.m - 1])

    def reduced(y):
        x = np.empty(p)
        x[keep] = y
        x[iv.m - 1] = iv.c
        return np.asarray(coef(x), dtype=float)[keep, :]
    return reduced


def _batched_cases():
    rng = np.random.default_rng(808)
    m = OuModel(p=6, d=4, x0=rng.uniform(-1, 1, 6), A=rng.uniform(-1, 1, 6),
                B=gershgorin_stable(rng, 6), sigma=rng.uniform(-1, 1, (6, 4)))
    first, second = Intervention(4, 0.7), Intervention(2, -1.3)
    ou_ref = _reference_ou_coef(m)
    once_ref = _reference_pinned_coef(ou_ref, 6, first)
    once = intervene_general(ou_as_general(m), first)

    def wave(x):
        return np.array([[np.sin(x[0]), 0.3, np.cos(x[1])],
                         [0.5 * x[1], np.sin(x[0] * x[1]), 1.0]])

    return {
        "ou_as_general": (ou_as_general(m), ou_ref, m.x0, 25),
        "pinned_once": (once, once_ref, np.delete(m.x0, 3), 25),
        "pinned_twice": (intervene_general(once, second),
                         _reference_pinned_coef(once_ref, 5, second),
                         np.delete(m.x0, [1, 3]), 25),
        "wrapped_sin": (GeneralSde(p=2, d=3, x0=[0.4, -0.2], coef=wave), wave,
                        [0.4, -0.2], 25),
        "one_path": (ou_as_general(m), ou_ref, m.x0, 1),
    }


@pytest.mark.parametrize("case", list(_batched_cases()))
def test_general_euler_batched_matches_per_path_reference(case):
    sde, coef, x0, n_paths = _batched_cases()[case]
    grid = uniform_grid(0.8, 30)
    got = simulate_paths(sde, grid, n_paths, seed=17, method="euler").values
    want = _reference_general_euler(coef, sde.p, sde.d, x0, grid, n_paths, 17)
    assert np.array_equal(got, want)


def test_general_euler_wrong_shape_coefficient():
    wrong = GeneralSde(p=2, d=2, x0=[0.0, 0.0],
                       batch_coef=lambda x: np.ones((x.shape[0], 2, 3)))
    with pytest.raises(DimensionError, match=re.escape("coef(x)")):
        simulate_paths(wrong, uniform_grid(1.0, 4), 3, seed=0, method="euler")
    with pytest.raises(DimensionError, match=re.escape("coef(x)")):
        wrong.coefs_at(np.zeros((1, 2)))[0]
    with pytest.raises(DimensionError):
        GeneralSde(p=2, d=2, x0=[0.0, 0.0])


def test_general_euler_batched_coefficient_turning_nonfinite():
    # Pure drift 1 until x reaches 0.6: states 0, 0.25, 0.5, 0.75, and the
    # coefficient at the state of t = 0.75 is infinite.
    sde = GeneralSde(p=1, d=1, x0=[0.0],
                     batch_coef=lambda x: np.where(x[:, :, None] < 0.6, 1.0, np.inf))
    with pytest.raises(SimulationOverflowError, match=r"t = 0\.75;"):
        simulate_paths(sde, uniform_grid(1.0, 4), 3, seed=0, method="euler")


def test_general_euler_ragged_wrapped_coefficient():
    # Paths leave x = 0 in both directions after the first step; rows with
    # x > 0 get a coefficient with an extra row.
    def coef(x):
        return [[0.0, 1.0]] if x[0] <= 0.0 else [[0.0, 1.0], [0.0, 1.0]]

    sde = GeneralSde(p=1, d=2, x0=[0.0], coef=coef)
    with pytest.raises(DimensionError, match=re.escape("coef(x)")):
        simulate_paths(sde, uniform_grid(1.0, 4), 8, seed=0, method="euler")

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


def test_sample_stats_scale_columns_without_changing_bits():
    # Dividing each column by a power of two changes no bit of the
    # covariance, and keeps it finite while it is representable.
    rng = np.random.default_rng(17)
    for _ in range(200):
        x = rng.standard_normal((int(rng.integers(2, 40)), 3)) * 10.0 ** rng.uniform(-8, 8, 3)
        centered = x - x.mean(axis=0)
        expect = centered.T @ centered / (len(x) - 1)
        assert np.array_equal(simulate._sample_stats(x).cov, expect)
    x = np.array([[1e154, 1.0], [-1e154, -1.0], [1e154, 1.0]])
    assert np.all(np.isfinite(simulate._sample_stats(x).cov))
    with pytest.raises(NonFiniteError, match="sample covariance overflows"):
        simulate._sample_stats(np.array([[1e300], [-1e300]]) * 1e8)


def test_path_stats_validation():
    m = demo_triangular()
    bundle = simulate_paths(m, uniform_grid(1.0, 2), 5, seed=0, method="exact")
    with pytest.raises(IndexError):
        path_stats(bundle, 7)
    single = simulate_paths(m, uniform_grid(1.0, 2), 1, seed=0, method="exact")
    with pytest.raises(DimensionError):
        path_stats(single, 0)
