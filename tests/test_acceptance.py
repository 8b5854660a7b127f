"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Every tolerance is fixed here; nothing is calibrated at runtime.
"""

import json
import subprocess
import sys
import time

import numpy as np

from oucausal import (
    Classification,
    Intervention,
    OuModel,
    TimeGrid,
    classify,
    coupled_intervention_diff,
    intervene_ou,
    path_stats,
    simulate_paths,
    spectral_abscissa,
    stationary_distribution,
    uniform_grid,
)
from oucausal import matkit
from util import (
    gamma_by_quadrature, intervened_stationary_closed_form, principal_submatrix, random_triangular,
)

ROTATING = np.array([[1.0, 7.0], [-1.0, -3.0]])

MC_MODEL = OuModel(
    p=3, d=3, x0=[0.0, 0.0, 0.0], A=[1.0, 2.0, 3.0],
    B=[[-1.0, 0.5, 0.3], [0.0, -2.0, 0.7], [0.0, 0.0, -1.5]],
    sigma=np.eye(3),
)


class _Criterion:
    """Times a criterion body and prints one pass/fail line."""

    def __init__(self, name, budget_s=None):
        self.name = name
        self.budget_s = budget_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        budget = f", budget {self.budget_s:g}s" if self.budget_s else ""
        print(f"[{status}] {self.name} ({elapsed:.2f}s{budget})")
        if exc_type is None and self.budget_s is not None:
            assert elapsed < self.budget_s, (
                f"{self.name}: {elapsed:.2f}s exceeded budget {self.budget_s}s"
            )
        return False


def test_criterion_01_counterexample_classification():
    with _Criterion("1 counterexample classification", 1.0):
        report = classify(ROTATING)
        assert report.classification is Classification.STABLE
        assert abs(report.spectral_abscissa + 1.0) <= 1e-6
        sub = principal_submatrix(ROTATING, {2})
        assert classify(sub).classification is Classification.UNSTABLE
        neg = classify(-ROTATING)
        assert neg.classification is Classification.UNSTABLE
        assert abs(neg.spectral_abscissa - 1.0) <= 1e-6
        neg_sub = principal_submatrix(-ROTATING, {2})
        assert classify(neg_sub).classification is Classification.STABLE


def test_criterion_02_substitution_oracle():
    # Reduced drift == original drift rows with the pinned coordinate
    # replaced by c, at random states, for 1000 random models.
    with _Criterion("2 intervention substitution oracle", 10.0):
        rng = np.random.default_rng(202)
        worst = 0.0
        for _ in range(1000):
            p = int(rng.integers(2, 7))
            b = rng.uniform(-2.0, 2.0, (p, p))
            b[np.arange(p), np.arange(p)] -= 0.5 + np.sum(np.abs(b), axis=1)
            model = OuModel(p=p, d=p, x0=np.zeros(p), A=rng.uniform(-2, 2, p),
                            B=b, sigma=np.eye(p))
            m_idx = int(rng.integers(1, p + 1))
            c = float(rng.uniform(-2, 2))
            reduced, _ = intervene_ou(model, Intervention(m_idx, c))
            keep = [i for i in range(p) if i != m_idx - 1]
            states = rng.uniform(-5.0, 5.0, (100, p - 1))
            lhs = (states - reduced.A) @ reduced.B.T
            full = np.insert(states, m_idx - 1, c, axis=1)
            rhs = ((full - model.A) @ model.B.T)[:, keep]
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        assert worst <= 1e-10, f"max drift mismatch {worst:.3e}"


def test_criterion_03_closed_form_pipeline():
    # intervene -> Lyapunov solve must reproduce the closed-form stationary
    # laws of the triangular benchmark, including coincident diagonals.
    with _Criterion("3 closed-form stationary laws", 10.0):
        rng = np.random.default_rng(303)
        worst = 0.0
        for trial in range(1000):
            b = random_triangular(rng, coincident=trial < 200)
            a = rng.uniform(-2.0, 2.0, 3)
            c = float(rng.uniform(-5.0, 5.0))
            model = OuModel(p=3, d=3, x0=np.zeros(3), A=a, B=b, sigma=np.eye(3))
            for which, m_idx in (("X2", 2), ("X3", 3)):
                reduced, _ = intervene_ou(model, Intervention(m_idx, c))
                law = stationary_distribution(reduced)
                closed = intervened_stationary_closed_form(b, a, c, which)
                for got, expect in ((law.mean, closed.mean), (law.cov, closed.cov)):
                    scale = np.maximum(np.abs(expect), np.max(np.abs(expect)) * 1e-6)
                    worst = max(worst, float(np.max(np.abs(got - expect) / scale)))
        assert worst <= 1e-8, f"max entrywise relative error {worst:.3e}"


def test_criterion_04_lyapunov_vs_quadrature():
    with _Criterion("4 Lyapunov solve vs Simpson quadrature", 30.0):
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(100):
            r = rng.uniform(-1.0, 1.0, (3, 3))
            b = r - (1.0 + np.max(np.sum(np.abs(r), axis=1))) * np.eye(3)
            sigma = rng.uniform(-1.0, 1.0, (3, 3))
            while matkit.rank(sigma) < 3:
                sigma = rng.uniform(-1.0, 1.0, (3, 3))
            model = OuModel(p=3, d=3, x0=np.zeros(3), A=np.zeros(3),
                            B=b, sigma=sigma)
            g_lyap = stationary_distribution(model).cov
            t_end = 40.0 / abs(spectral_abscissa(b))
            g_simpson = gamma_by_quadrature(model, t_end=t_end, n=2000)
            rel = np.max(np.abs(g_lyap - g_simpson)) / np.max(np.abs(g_lyap))
            worst = max(worst, float(rel))
        assert worst <= 1e-6, f"max relative gap {worst:.3e}"


def test_criterion_05_monte_carlo_stationarity():
    with _Criterion("5 Monte Carlo stationarity", 60.0):
        n = 20_000
        grid = TimeGrid(np.array([0.0, 50.0]))

        def check(model, mean, cov, seed):
            bundle = simulate_paths(model, grid, n, seed=seed, method="exact")
            stats = path_stats(bundle, -1)
            assert np.all(np.abs(stats.mean - mean) <= 4.0 * stats.se_mean)
            cov_se = np.sqrt(
                (np.outer(np.diag(cov), np.diag(cov)) + cov**2) / n
            )
            assert np.all(np.abs(stats.cov - cov) <= 4.0 * cov_se)

        law = stationary_distribution(MC_MODEL)
        check(MC_MODEL, law.mean, law.cov, seed=2024)

        reduced, _ = intervene_ou(MC_MODEL, Intervention(2, 0.0))
        closed = intervened_stationary_closed_form(MC_MODEL.B, MC_MODEL.A, 0.0, "X2")
        check(reduced, closed.mean, closed.cov, seed=77)


def test_criterion_06_euler_weak_order():
    with _Criterion("6 Euler weak order one", 120.0):
        model = OuModel(p=1, d=1, x0=[5.0], A=[0.0], B=[[-1.0]], sigma=[[1.0]])
        exact_mean = float(np.exp(-1.0) * 5.0)
        errors = []
        for h in (0.1, 0.05, 0.025):
            bundle = simulate_paths(model, uniform_grid(1.0, round(1.0 / h)),
                                    10**6, seed=123, method="euler")
            errors.append(abs(float(bundle.values[:, -1, 0].mean()) - exact_mean))
        ratios = [errors[0] / errors[1], errors[1] / errors[2]]
        for ratio in ratios:
            assert 1.6 <= ratio <= 2.6, f"ratios {ratios}"


def test_criterion_07_covariance_c_invariance():
    with _Criterion("7 intervened covariance ignores c", 5.0):
        rng = np.random.default_rng(707)
        for _ in range(100):
            b = random_triangular(rng)
            a = rng.uniform(-2.0, 2.0, 3)
            model = OuModel(p=3, d=3, x0=np.zeros(3), A=a, B=b, sigma=np.eye(3))
            m_idx = int(rng.integers(2, 4))
            red0, _ = intervene_ou(model, Intervention(m_idx, 0.0))
            red1, _ = intervene_ou(model, Intervention(m_idx, 100.0))
            g0 = stationary_distribution(red0).cov
            g1 = stationary_distribution(red1).cov
            assert np.max(np.abs(g0 - g1)) <= 1e-12


def test_criterion_08_coupled_null_channel():
    with _Criterion("8 coupled difference null channel", 5.0):
        rng = np.random.default_rng(808)
        grid = uniform_grid(1.0, 100)
        for m_idx in (1, 2, 3, 4):
            model = OuModel(p=4, d=4, x0=rng.uniform(-1, 1, 4),
                            A=rng.uniform(-1, 1, 4),
                            B=np.diag(rng.uniform(-3.0, -0.5, 4)),
                            sigma=rng.uniform(-1.0, 1.0, (4, 4)))
            diff = coupled_intervention_diff(model, Intervention(m_idx, 2.0),
                                             grid, 50, seed=m_idx)
            others = [i for i in range(4) if i != m_idx - 1]
            assert np.all(diff.values[:, :, others] == 0.0)


def test_criterion_09_dependence_graph_emission(tmp_path):
    with _Criterion("9 dependence graph emission"):
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps({
            "p": 3, "d": 3, "x0": [0.0, 0.0, 0.0], "A": [1.0, 2.0, 3.0],
            "B": [[-1.0, 0.5, 0.3], [0.0, -2.0, 0.7], [0.0, 0.0, -1.5]],
            "sigma": np.eye(3).tolist(),
        }))

        def cli(*args):
            return subprocess.run([sys.executable, "-m", "oucausal", *args],
                                  capture_output=True, text=True)

        first = cli("graph", str(model_path), "--dot")
        assert first.returncode == 0
        assert first.stdout == (
            'digraph G {\n'
            '  "X1";\n'
            '  "X2";\n'
            '  "X3";\n'
            '  "X1" -> "X1";\n'
            '  "X2" -> "X1";\n'
            '  "X3" -> "X1";\n'
            '  "X2" -> "X2";\n'
            '  "X3" -> "X2";\n'
            '  "X3" -> "X3";\n'
            '}\n'
        )
        assert cli("graph", str(model_path), "--dot").stdout == first.stdout

        reduced = cli("intervene", str(model_path), "--set", "X2=0.5")
        reduced_path = tmp_path / "reduced.json"
        reduced_path.write_text(reduced.stdout)
        after = cli("graph", str(reduced_path), "--dot")
        assert after.stdout == (
            'digraph G {\n'
            '  "X1";\n'
            '  "X3";\n'
            '  "X1" -> "X1";\n'
            '  "X3" -> "X1";\n'
            '  "X3" -> "X3";\n'
            '}\n'
        )
        assert cli("graph", str(reduced_path), "--dot").stdout == after.stdout


def test_criterion_10_transition_semigroup():
    from oucausal import exact_transition
    with _Criterion("10 transition semigroup identities", 5.0):
        rng = np.random.default_rng(1010)
        for _ in range(100):
            b = rng.uniform(-2.0, 2.0, (3, 3))
            sigma = rng.uniform(-1.0, 1.0, (3, 3))
            model = OuModel(p=3, d=3, x0=np.zeros(3), A=rng.uniform(-1, 1, 3),
                            B=b, sigma=sigma)
            f_s, _, q_s = exact_transition(model, 0.3)
            f_t, _, q_t = exact_transition(model, 0.7)
            f_full, _, q_full = exact_transition(model, 1.0)
            assert np.max(np.abs(f_t @ f_s - f_full)) <= 1e-9
            assert np.max(np.abs(f_t @ q_s @ f_t.T + q_t - q_full)) <= 1e-9
