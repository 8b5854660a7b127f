"""Output checks against computations made apart from the program.

Every oracle here reads the model files directly and computes with numpy
and scipy only: eigenvalues for stability verdicts, scipy's Lyapunov solver
and matrix exponential for stationary and transition laws, numpy.linalg for
ranks and the intervention calculus, and the paper's closed forms written
out below. No check compares against a stored copy of earlier output, so a
change of random stream that is still correct passes.

Each check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import os
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from workloads import output_file

EPS = np.finfo(float).eps
TOL = 1e-9            # the CLI's default spectral abscissa tolerance
K_MEAN = 6.0          # standard errors allowed for a sample mean
K_COV = 7.0           # standard errors allowed for a sample covariance entry


class Model:
    """A model file, with the listed interventions applied by the oracle."""

    def __init__(self, path: str):
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
        self.B = np.array(doc["B"], dtype=float)
        self.sigma = np.array(doc["sigma"], dtype=float)
        self.A = np.array(doc["A"], dtype=float)
        self.x0 = np.array(doc["x0"], dtype=float)
        self.labels = list(doc["labels"])
        self.ivs = [(self.labels.index(iv["on"]), float(iv["value"]))
                    for iv in doc.get("interventions", [])]

    def reduced(self) -> "Reduced":
        """Pin every listed coordinate at once: A~ = A_K - B_KK^-1 B_KS (c - A_S)."""
        pinned = [m for m, _ in self.ivs]
        keep = [i for i in range(len(self.labels)) if i not in pinned]
        c = np.array([v for _, v in self.ivs])
        b_kk = self.B[np.ix_(keep, keep)]
        a = self.A[keep].copy()
        if pinned:
            a -= np.linalg.solve(b_kk, self.B[np.ix_(keep, pinned)] @ (c - self.A[pinned]))
        return Reduced(b_kk, self.sigma[keep], a, self.x0[keep],
                       [self.labels[i] for i in keep], keep)


@dataclass
class Reduced:
    """The model after pinning; `keep` lists the surviving 0-based coordinates."""

    B: np.ndarray
    sigma: np.ndarray
    A: np.ndarray
    x0: np.ndarray
    labels: list
    keep: list

    @property
    def p(self):
        return self.B.shape[0]


# -- stability -----------------------------------------------------------
def abscissa_oracle(b: np.ndarray) -> tuple[float, float]:
    """Max real eigenvalue part and an estimate of its own error: the
    disagreement between eigvals(B) and eigvals(B^T), plus a rounding floor."""
    alpha = float(np.max(np.linalg.eigvals(b).real))
    alpha_t = float(np.max(np.linalg.eigvals(b.T).real))
    return alpha, abs(alpha - alpha_t) + 64 * EPS * max(1.0, float(np.linalg.norm(b)))


def check_verdict(b, classification: str, abscissa: float, where: str) -> list[str]:
    """Classification and abscissa against eigenvalues, allowing tol plus
    the oracle's error."""
    alpha, err = abscissa_oracle(b)
    problems = []
    if abs(abscissa - alpha) > TOL + err:
        problems.append(f"{where}: abscissa {abscissa!r}, eigenvalues give {alpha!r}")
    if alpha < -TOL - err:
        expected = {"Stable"}
    elif alpha > TOL + err:
        expected = {"Unstable"}
    else:
        expected = {"Stable", "SemistableNotStable", "Unstable"}
    if classification not in expected:
        problems.append(f"{where}: {classification}, eigenvalues give abscissa {alpha!r}")
    return problems


# -- stationary laws -------------------------------------------------------
def _close(x, ref, rtol) -> bool:
    x, ref = np.asarray(x, dtype=float), np.asarray(ref, dtype=float)
    return x.shape == ref.shape and bool(
        np.linalg.norm(x - ref) <= rtol * max(np.linalg.norm(ref), 1e-300))


def lyapunov_rtol(b: np.ndarray) -> float:
    """Forward error allowance of a backward-stable Lyapunov solve: a
    multiple of eps times the condition number of I (x) B + B (x) I."""
    n = b.shape[0]
    k = np.kron(np.eye(n), b) + np.kron(b, np.eye(n))
    return max(1e3 * EPS * float(np.linalg.cond(k)), 1e-10)


def check_law(r: Reduced, mean, cov, where: str) -> list[str]:
    problems = []
    if not _close(mean, r.A, 1e-9):
        problems.append(f"{where}: stationary mean differs from A~")
    g = scipy.linalg.solve_continuous_lyapunov(r.B, -r.sigma @ r.sigma.T)
    if not _close(cov, g, lyapunov_rtol(r.B)):
        problems.append(f"{where}: stationary covariance differs from scipy's Lyapunov solution")
    return problems


def closed_form_tri3(b, a, which: int, c: float) -> tuple[np.ndarray, np.ndarray]:
    """Stationary law of the two survivors after pinning X2 (which=1) or X3
    (which=2) of the upper triangular 3-d model with sigma = I."""
    b11, b12, b13, b22, b23, b33 = b[0, 0], b[0, 1], b[0, 2], b[1, 1], b[1, 2], b[2, 2]
    a1, a2, a3 = a
    if which == 1:
        mean = [a1 - b12 / b11 * (c - a2), a3]
        bj, bjj = b13, b33
    else:
        mean = [a1 - (b13 / b11 - b12 * b23 / (b11 * b22)) * (c - a3),
                a2 - b23 / b22 * (c - a3)]
        bj, bjj = b12, b22
    off = bj / (2 * bjj * (b11 + bjj))
    cov = [[-1 / (2 * b11) - bj**2 / (2 * b11 * bjj * (b11 + bjj)), off],
           [off, -1 / (2 * bjj)]]
    return np.array(mean), np.array(cov)


def check_closed_form(m: Model, mean, cov, where: str) -> list[str]:
    (which, c), = m.ivs
    ref_mean, ref_cov = closed_form_tri3(m.B, m.A, which, c)
    if _close(mean, ref_mean, 1e-9) and _close(cov, ref_cov, 1e-9):
        return []
    return [f"{where}: pinned law differs from the paper's closed form"]


# -- command checks --------------------------------------------------------
def _json(text: str, where: str):
    try:
        return json.loads(text), []
    except json.JSONDecodeError as exc:
        return None, [f"{where}: output is not JSON ({exc})"]


def check_describe(ctx, op, text) -> list[str]:
    chk, where = op["check"], op["name"]
    model = ctx.model(chk["model"])
    r = model.reduced()
    doc, problems = _json(text, where)
    if problems:
        return problems
    if doc["p"] != r.p or doc["labels"] != r.labels or doc["d"] != r.sigma.shape[1]:
        problems.append(f"{where}: dimensions or labels differ")
    st = doc["stability"]
    problems += check_verdict(r.B, st["classification"], st["spectral_abscissa"], where)
    krylov = np.hstack([np.linalg.matrix_power(r.B, k) @ r.sigma for k in range(r.p)])
    if doc["controllability_rank"] != np.linalg.matrix_rank(krylov):
        problems.append(f"{where}: controllability rank {doc['controllability_rank']}, "
                        f"numpy gives {np.linalg.matrix_rank(krylov)}")
    full = bool(np.linalg.matrix_rank(r.sigma) == r.p)
    if doc["sigma_full_column_span"] != full:
        problems.append(f"{where}: sigma_full_column_span should be {full}")
    alpha, err = abscissa_oracle(r.B)
    if not full:
        expected = "IndeterminateColumnSpan"
    else:
        expected = "Exists" if alpha < -err else "NotExists"
    if doc["stationarity"] != expected:
        problems.append(f"{where}: stationarity {doc['stationarity']}, expected {expected}")
    elif expected == "Exists":
        law = doc.get("stationary")
        if law is None:
            problems.append(f"{where}: stationary law missing")
        else:
            problems += check_law(r, law["mean"], law["cov"], where)
            if chk.get("closed_form"):
                problems += check_closed_form(model, law["mean"], law["cov"], where)
    return problems


def check_stationary(ctx, op, text) -> list[str]:
    chk, where = op["check"], op["name"]
    model = ctx.model(chk["model"])
    doc, problems = _json(text, where)
    if problems:
        return problems
    problems = check_law(model.reduced(), doc["mean"], doc["cov"], where)
    if chk.get("closed_form"):
        problems += check_closed_form(model, doc["mean"], doc["cov"], where)
    return problems


def _csv_rows(text: str):
    return list(csv.reader(io.StringIO(text)))


def check_stability(ctx, op, text) -> list[str]:
    where = op["name"]
    rows = _csv_rows(text)
    if rows[0] != ["removed_set", "classification", "abscissa"] or len(rows) != 2 \
            or rows[1][0] != "{}":
        return [f"{where}: unexpected CSV layout"]
    b = ctx.model(op["check"]["model"]).reduced().B
    return check_verdict(b, rows[1][1], float(rows[1][2]), where)


def check_screen(ctx, op, text) -> list[str]:
    where = op["name"]
    b = ctx.model(op["check"]["model"]).B
    p = b.shape[0]
    rows = _csv_rows(text)
    if rows[0] != ["removed_set", "classification", "abscissa"]:
        return [f"{where}: bad header {rows[0]}"]
    rows = rows[1:]
    removal = [combo for k in range(p) for combo in itertools.combinations(range(1, p + 1), k)]
    if len(rows) != 2**p - 1:
        return [f"{where}: {len(rows)} rows, expected {2**p - 1}"]
    symmetric_stable = bool(np.array_equal(b, b.T) and abscissa_oracle(b)[0] < 0)
    problems = []
    for row, removed in zip(rows, removal):
        if row[0] != "{" + ",".join(map(str, removed)) + "}":
            problems.append(f"{where}: row {row[0]} out of order, expected {removed}")
            continue
        keep = [i for i in range(p) if i + 1 not in removed]
        sub = b[np.ix_(keep, keep)]
        cls, absc = row[1], float(row[2])
        if symmetric_stable and removed:
            alpha, err = abscissa_oracle(sub)
            if cls != "Stable" or absc < alpha - TOL - err:
                problems.append(f"{where} {row[0]}: fast-path bound {absc!r} below {alpha!r}")
        else:
            problems += check_verdict(sub, cls, absc, f"{where} {row[0]}")
    return problems


def _expected_edges(model: Model):
    lab, b = model.labels, model.B
    return [[lab[j], lab[i]] for i in range(len(lab)) for j in range(len(lab)) if b[i, j] != 0.0]


def check_graph(ctx, op, text) -> list[str]:
    where = op["name"]
    model = ctx.model(op["check"]["model"])
    doc, problems = _json(text, where)
    if problems:
        return problems
    if doc["nodes"] != model.labels or doc["edges"] != _expected_edges(model):
        return [f"{where}: nodes or edges differ from the sparsity of B"]
    return []


def check_graph_dot(ctx, op, text) -> list[str]:
    where = op["name"]
    model = ctx.model(op["check"]["model"])
    lines = [line.strip() for line in text.strip().splitlines()]
    nodes = [f'"{n}";' for n in model.labels]
    edges = [f'"{s}" -> "{d}";' for s, d in _expected_edges(model)]
    if lines[0] != "digraph G {" or lines[-1] != "}" or lines[1:-1] != nodes + edges:
        return [f"{where}: DOT text does not list the expected nodes and edges"]
    return []


def check_intervene(ctx, op, text) -> list[str]:
    where = op["name"]
    model = ctx.model(op["check"]["model"])
    r = model.reduced()
    doc, problems = _json(text, where)
    if problems:
        return problems
    if doc["p"] != r.p or doc["d"] != model.sigma.shape[1] or doc["labels"] != r.labels:
        problems.append(f"{where}: dimensions or labels differ")
    if not (np.array_equal(doc["B"], r.B) and np.array_equal(doc["sigma"], r.sigma)
            and np.array_equal(doc["x0"], r.x0)):
        problems.append(f"{where}: B~, sigma~ or x0~ is not the deleted-row/column block")
    if not _close(doc["A"], r.A, 1e-9):
        problems.append(f"{where}: A~ differs from alpha - B~^-1 beta")
    rec = doc.get("intervention_record", {})
    fixed = [[model.labels[m], c] for m, c in model.ivs]
    if [[f["label"], f["value"]] for f in rec.get("fixed", [])] != fixed \
            or rec.get("surviving_labels") != r.labels:
        problems.append(f"{where}: intervention_record differs")
    return problems


# -- simulation ------------------------------------------------------------
def exact_law(r, t: float):
    """Law at time t from x0 by Van Loan's block exponential (scipy expm)."""
    p = r.p
    q = r.sigma @ r.sigma.T
    blk = np.zeros((2 * p, 2 * p))
    blk[:p, :p], blk[:p, p:], blk[p:, p:] = r.B, q, -r.B.T
    e = scipy.linalg.expm(t * blk)
    f = e[:p, :p]
    return f @ r.x0 + (np.eye(p) - f) @ r.A, e[:p, p:] @ f.T


def euler_law(f, const, noise, x0, steps):
    """Mean and covariance after `steps` of Z' = F Z + const + noise dW."""
    mean, cov = x0.astype(float), np.zeros((len(x0), len(x0)))
    nn = noise @ noise.T
    for _ in range(steps):
        mean = f @ mean + const
        cov = f @ cov @ f.T + nn
    return mean, cov


def ou_euler_law(r, t, steps):
    dt = t / steps
    f = np.eye(r.p) + r.B * dt
    return euler_law(f, -r.B @ r.A * dt, r.sigma * np.sqrt(dt), r.x0, steps)


def coupled_law(model: Model, base: Reduced, t, steps):
    """Law of D = Y - X under shared increments: X is the Euler-stepped
    unpinned model `base`, Y the Euler-stepped pinned `model`."""
    red = model.reduced()
    p, k = base.p, red.p
    dt = t / steps
    f = scipy.linalg.block_diag(np.eye(p) + base.B * dt, np.eye(k) + red.B * dt)
    const = np.concatenate([-base.B @ base.A * dt, -red.B @ red.A * dt])
    noise = np.vstack([base.sigma, red.sigma]) * np.sqrt(dt)
    mean, cov = euler_law(f, const, noise, np.concatenate([base.x0, red.x0]), steps)
    lift = np.zeros((p, p + k))
    shift = np.zeros(p)
    lift[:, :p] = -np.eye(p)
    for pos, orig in enumerate(red.keep):
        lift[orig, p + pos] = 1.0
    (m, c), = model.ivs
    shift[m] = c
    return lift @ mean + shift, lift @ cov @ lift.T


def _z(diff, se, ref):
    """|diff| in standard errors; a zero-variance entry (a coordinate the
    intervention does not reach has D = 0 exactly) must match to rounding."""
    exact = np.abs(diff) <= 1e-12 * (1.0 + np.abs(ref))
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.abs(diff) / se
    return np.where(se > 0, z, np.where(exact, 0.0, np.inf))


def check_sample(mean, cov, n, ref_mean, ref_cov, where) -> list[str]:
    """Sample mean and covariance within a few standard errors of the law."""
    mean, cov = np.asarray(mean), np.asarray(cov)
    sd = np.sqrt(np.maximum(np.diag(ref_cov), 0.0))
    problems = []
    z_mean = _z(mean - ref_mean, sd / np.sqrt(n), ref_mean)
    if np.max(z_mean) > K_MEAN:
        problems.append(f"{where}: final-time mean {np.max(z_mean):.1f} SE from the law")
    se_cov = np.sqrt((np.outer(sd**2, sd**2) + ref_cov**2) / (n - 1))
    z_cov = _z(cov - ref_cov, se_cov, ref_cov)
    if np.max(z_cov) > K_COV:
        problems.append(f"{where}: final-time covariance {np.max(z_cov):.1f} SE from the law")
    return problems


def _paths(text: str, labels, chk, where):
    """Parse a paths CSV and check its layout; returns (values, problems)."""
    header, _, body = text.partition("\n")
    if header.split(",") != ["path", "t"] + labels:
        return None, [f"{where}: header {header!r}"]
    data = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    n, steps = chk["paths"], chk["steps"]
    if data.shape != (n * (steps + 1), 2 + len(labels)):
        return None, [f"{where}: CSV shape {data.shape}"]
    problems = []
    if not np.array_equal(data[:, 0], np.repeat(np.arange(n), steps + 1)):
        problems.append(f"{where}: path column out of order")
    grid = chk["t"] * np.arange(steps + 1) / steps
    if np.max(np.abs(data[:, 1] - np.tile(grid, n))) > 1e-12 * chk["t"]:
        problems.append(f"{where}: time column is not the uniform grid")
    return data[:, 2:].reshape(n, steps + 1, len(labels)), problems


def _final_stats(values):
    x = values[:, -1, :]
    return x.mean(axis=0), np.cov(x, rowvar=False, ddof=1).reshape(x.shape[1], x.shape[1])


def check_paths_csv(ctx, op, text) -> list[str]:
    """Exact CSV of the pinned model, or Euler CSV of the unpinned model."""
    chk, where = op["check"], op["name"]
    exact = chk["kind"] == "exact_csv"
    r = ctx.model(chk["pinned"] if exact else chk["model"]).reduced()
    values, problems = _paths(text, r.labels, chk, where)
    if values is None:
        return problems
    if not np.array_equal(values[:, 0, :], np.broadcast_to(r.x0, values[:, 0, :].shape)):
        problems.append(f"{where}: t=0 row is not x0")
    law = exact_law(r, chk["t"]) if exact else ou_euler_law(r, chk["t"], chk["steps"])
    return problems + check_sample(*_final_stats(values), chk["paths"], *law, where)


def _check_stats_doc(doc, chk, labels, ref, where) -> list[str]:
    problems = []
    if doc["n_paths"] != chk["paths"] or doc["labels"] != labels \
            or abs(doc["at"] - chk["t"]) > 1e-12 * chk["t"]:
        problems.append(f"{where}: n_paths, labels or time differ from the request")
    se = np.sqrt(np.diag(doc["cov"]) / doc["n_paths"])
    if not _close(doc["se_mean"], se, 1e-9):
        problems.append(f"{where}: se_mean is not sqrt(diag(cov)/n)")
    return problems + check_sample(doc["mean"], doc["cov"], chk["paths"], *ref, where)


def check_exact_stats(ctx, op, text) -> list[str]:
    chk, where = op["check"], op["name"]
    doc, problems = _json(text, where)
    if problems:
        return problems
    r = ctx.model(chk["pinned"]).reduced()
    return _check_stats_doc(doc, chk, r.labels, exact_law(r, chk["t"]), where)


def check_coupled_stats(ctx, op, text) -> list[str]:
    chk, where = op["check"], op["name"]
    doc, problems = _json(text, where)
    if problems:
        return problems
    model = ctx.model(chk["pinned"])
    base = ctx.model(chk["model"]).reduced()
    return _check_stats_doc(doc, chk, model.labels,
                            coupled_law(model, base, chk["t"], chk["steps"]), where)


def _coupled_paths(text, model, chk, where):
    """X and D = Y - X columns of a --coupled CSV."""
    p = len(model.labels)
    values, problems = _paths(text, model.labels + [f"D{i}" for i in range(1, p + 1)],
                              chk, where)
    if values is None:
        return None, None, problems
    return values[..., :p], values[..., p:], problems


def check_coupled_csv(ctx, op, text) -> list[str]:
    chk, where = op["check"], op["name"]
    model = ctx.model(chk["pinned"])
    x, d, problems = _coupled_paths(text, model, chk, where)
    if x is None:
        return problems
    euler_text = ctx.output(chk["euler_op"]).decode("utf-8")
    euler, _ = _paths(euler_text, model.labels, chk, where)
    if euler is None or not np.array_equal(x, euler):
        problems.append(f"{where}: X columns differ from --method euler with the same seed")
    (m, c), = model.ivs
    if not np.array_equal(d[..., m], c - x[..., m]):
        problems.append(f"{where}: D at the pinned coordinate is not c - X")
    return problems


def check_general_euler(ctx, op, data) -> list[str]:
    chk, where = op["check"], op["name"]
    values = np.load(io.BytesIO(data))
    model = ctx.model(chk["pinned"])
    x, d, problems = _coupled_paths(ctx.output(chk["coupled_op"]).decode("utf-8"), model,
                                    chk, where)
    if x is None:
        return problems
    u = (x + d)[..., model.reduced().keep]         # Y from the OU-calculus pinned model
    if values.shape != u.shape:
        return [f"{where}: shape {values.shape}, expected {u.shape}"]
    gap = float(np.max(np.abs(values - u) / np.maximum(1.0, np.abs(u))))
    if gap > 1e-9:
        return [f"{where}: general-SDE pinned paths differ from the OU pinned paths by {gap:.2e}"]
    return []


CHECKS = {
    "describe": check_describe,
    "stationary": check_stationary,
    "stability": check_stability,
    "screen": check_screen,
    "graph": check_graph,
    "graph_dot": check_graph_dot,
    "intervene": check_intervene,
    "exact_csv": check_paths_csv,
    "euler_csv": check_paths_csv,
    "exact_stats": check_exact_stats,
    "coupled_csv": check_coupled_csv,
    "coupled_stats": check_coupled_stats,
    "general_euler": check_general_euler,
}


class Context:
    """Model files and round-1 outputs of one run, shared by the checks."""

    def __init__(self, model_dir: str, out_dir: str, ops: list[dict]):
        self.model_dir, self.out_dir = model_dir, out_dir
        self.ops = {op["name"]: op for op in ops}
        self._models: dict[str, Model] = {}

    def model(self, stem: str) -> Model:
        if stem not in self._models:
            self._models[stem] = Model(os.path.join(self.model_dir, f"{stem}.json"))
        return self._models[stem]

    def output(self, name: str) -> bytes:
        with open(os.path.join(self.out_dir, output_file(self.ops[name])), "rb") as fh:
            return fh.read()


def check_output(ctx: Context, op: dict, code: int, payload) -> list[str]:
    """Problems with one operation's output; a nonzero exit code is one."""
    if code != 0:
        return [f"{op['name']}: exit code {code}"]
    try:
        return CHECKS[op["check"]["kind"]](ctx, op, payload)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return [f"{op['name']}: malformed output ({type(exc).__name__}: {exc})"]


def check_op(ctx: Context, op: dict, code: int) -> list[str]:
    """Check the round-1 output file of an operation."""
    data = ctx.output(op["name"])
    return check_output(ctx, op, code,
                        data if op["kind"] == "general_euler" else data.decode("utf-8"))
