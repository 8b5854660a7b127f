"""Model generation and operation lists for the three workloads.

Everything here is a pure function of the workload seed, so the same seed
gives byte-identical model files and the same operation list. Only numpy is
used; the program under test is not imported, so generated inputs do not
depend on the code being measured.

Random matrices are rescaled so that their Gershgorin real bracket has a
fixed width (`_BRACKET`). The spectral-abscissa bisection in `oucausal`
starts from that bracket (widened by 1), so every seed costs the same
number of bisection steps and the run-to-run spread stays small.

The fault inputs (`FAULT_OPS`) are built without the workload seed: they
fail the same way on every run, and are counted in `failed`.
"""

from __future__ import annotations

import itertools
import json
import os
import zlib

import numpy as np

WORKLOADS = ("analysis", "screening", "simulation")

_BRACKET = 5.0          # Gershgorin bracket width after rescaling
_MARGIN = 0.05          # min |spectral abscissa| of every matrix whose verdict is checked
_FAULT_SEED = 20130849  # fixed seed of the conjugated fault model (not the workload seed)

ANALYSIS_DENSE_P = (3, 5, 10, 15, 20)

# Simulation sizes: grid and path counts of each simulate operation.
SIM_T = 1.0
SIM_STEPS = 50
SIM_PATHS_CSV_EXACT = 1000
SIM_PATHS_SMALL = 200       # euler CSV, coupled CSV and the library op share these paths
SIM_PATHS_STATS = 20000
SIM_PATHS_COUPLED_STATS = 5000


def _rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([int(seed) & 0xFFFFFFFF, zlib.crc32(name.encode())])


def _abscissa(b: np.ndarray) -> float:
    return float(np.max(np.linalg.eigvals(b).real))


def _normalize_bracket(b: np.ndarray) -> np.ndarray:
    """Scale B by a positive factor so its Gershgorin real bracket is _BRACKET wide."""
    d = np.diag(b)
    radii = np.sum(np.abs(b), axis=1) - np.abs(d)
    width = float(np.max(d + radii) - np.min(d - radii))
    return b * (_BRACKET / width)


def _subsets(p: int):
    """Removal sets of every proper principal submatrix (0-based indices)."""
    for k in range(p):
        yield from itertools.combinations(range(p), k)


def _all_submatrix_margins_ok(b: np.ndarray) -> bool:
    p = b.shape[0]
    for removed in _subsets(p):
        keep = [i for i in range(p) if i not in removed]
        if abs(_abscissa(b[np.ix_(keep, keep)])) < _MARGIN:
            return False
    return True


def dense_stable(rng: np.random.Generator, p: int) -> np.ndarray:
    """Dense, mildly non-normal stable B with abscissa at most -_MARGIN."""
    while True:
        b = _normalize_bracket(-np.eye(p) + 0.7 * rng.standard_normal((p, p)) / np.sqrt(p))
        if _abscissa(b) < -_MARGIN:
            return b


def dense_mixed(rng: np.random.Generator, p: int) -> np.ndarray:
    """Dense non-symmetric B whose principal submatrices are a mix of stable
    and unstable, each with |abscissa| >= _MARGIN."""
    while True:
        diag = rng.choice([-1.0, -1.0, 1.0], size=p) * rng.uniform(0.6, 1.4, size=p)
        b = _normalize_bracket(np.diag(diag) + 0.4 * rng.standard_normal((p, p)) / np.sqrt(p))
        if _all_submatrix_margins_ok(b):
            return b


def block_triangular(rng: np.random.Generator, sizes: tuple[int, int]) -> np.ndarray:
    """B = [[B11, B12], [0, B22]] with dense blocks: two strongly connected
    components in the dependence graph."""
    p = sum(sizes)
    while True:
        diag = rng.choice([-1.0, -1.0, 1.0], size=p) * rng.uniform(0.6, 1.4, size=p)
        b = np.diag(diag) + 0.4 * rng.standard_normal((p, p)) / np.sqrt(p)
        b[sizes[0]:, :sizes[0]] = 0.0
        b = _normalize_bracket(b)
        if _all_submatrix_margins_ok(b):
            return b


def symmetric_stable(rng: np.random.Generator, p: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((p, p)))
    b = -(q * rng.uniform(0.3, 2.0, size=p)) @ q.T
    b = 0.5 * (b + b.T)
    return _normalize_bracket(b)


def upper_triangular3(rng: np.random.Generator) -> np.ndarray:
    """The paper's 3-d model shape: upper triangular with negative diagonal."""
    b = np.diag(-rng.uniform(0.5, 2.0, size=3))
    b[0, 1], b[0, 2], b[1, 2] = rng.uniform(-1.0, 1.0, size=3)
    return b


def fault_bidiagonal(p: int, superdiag: float) -> np.ndarray:
    """-I + superdiag * (superdiagonal ones): every eigenvalue is -1, but the
    Lyapunov certificate has a huge condition number."""
    return -np.eye(p) + superdiag * np.eye(p, k=1)


def fault_conjugated_p20() -> np.ndarray:
    """Dense stable p=20 B conjugated by diag(10^U(-3,3)); seed-independent."""
    rng = np.random.default_rng(_FAULT_SEED)
    b = dense_stable(rng, 20)
    scale = 10.0 ** rng.uniform(-3.0, 3.0, size=20)
    return (scale[:, None] * b) / scale[None, :]


def _model_doc(b, sigma, a, x0, interventions=()) -> dict:
    p = b.shape[0]
    doc = {
        "p": p,
        "d": int(sigma.shape[1]),
        "x0": [float(v) for v in x0],
        "A": [float(v) for v in a],
        "B": [[float(v) for v in row] for row in b],
        "sigma": [[float(v) for v in row] for row in sigma],
        "labels": [f"X{i}" for i in range(1, p + 1)],
    }
    if interventions:
        doc["interventions"] = [{"on": f"X{m}", "value": float(c)} for m, c in interventions]
    return doc


def _dense_doc(rng, b, interventions=()):
    p = b.shape[0]
    sigma = np.eye(p) + 0.3 * rng.standard_normal((p, p)) / np.sqrt(p)
    return _model_doc(b, sigma, rng.uniform(-2, 2, p), rng.uniform(-1, 1, p), interventions)


def _plain_doc(b, rng=None):
    p = b.shape[0]
    if rng is None:
        return _model_doc(b, np.eye(p), np.zeros(p), np.zeros(p))
    return _model_doc(b, np.eye(p), rng.uniform(-2, 2, p), np.zeros(p))


def _reduced_ok(b: np.ndarray, pinned: list[int]) -> bool:
    """The block left after pinning (1-based `pinned`) is invertible and
    its stability verdict has a margin."""
    keep = [i for i in range(b.shape[0]) if i + 1 not in pinned]
    sub = b[np.ix_(keep, keep)]
    return np.linalg.cond(sub) < 1e6 and abs(_abscissa(sub)) >= _MARGIN


def _pinned_dense(rng, p, pinned):
    while True:
        b = dense_stable(rng, p)
        if _reduced_ok(b, pinned):
            return b


def generate(workload: str, seed: int) -> dict[str, dict]:
    """Model documents of one workload, keyed by file stem."""
    docs: dict[str, dict] = {}
    if workload == "analysis":
        for p in ANALYSIS_DENSE_P:
            rng = _rng(seed, f"dense{p}")
            docs[f"dense{p}"] = _dense_doc(rng, dense_stable(rng, p))
        rng = _rng(seed, "tri3")
        tri = upper_triangular3(rng)
        a = rng.uniform(-2, 2, 3)
        c2, c3 = rng.uniform(-2, 2, 2)
        docs["tri3_x2"] = _model_doc(tri, np.eye(3), a, np.zeros(3), [(2, c2)])
        docs["tri3_x3"] = _model_doc(tri, np.eye(3), a, np.zeros(3), [(3, c3)])
        rng = _rng(seed, "ctrl5")
        b = np.zeros((5, 5))
        b[:3, :3] = dense_stable(rng, 3)
        b[3:, 3:] = dense_stable(rng, 2)
        b[:3, 3:] = 0.5 * rng.standard_normal((3, 2))
        sigma = np.zeros((5, 2))
        sigma[:3, :] = rng.standard_normal((3, 2))
        docs["ctrl5"] = _model_doc(b, sigma, rng.uniform(-2, 2, 5), np.zeros(5))
        for p, pinned in ((10, [4]), (15, [3, 11])):
            rng = _rng(seed, f"pin{p}")
            b = _pinned_dense(rng, p, pinned)
            ivs = [(m, rng.uniform(-2, 2)) for m in pinned]
            docs[f"pin{p}"] = _dense_doc(rng, b, ivs)
        docs["fault_bidiag10"] = _plain_doc(fault_bidiagonal(10, 10.0))
        docs["fault_conj20"] = _plain_doc(fault_conjugated_p20())
    elif workload == "screening":
        docs["mixed7"] = _plain_doc(dense_mixed(_rng(seed, "mixed7"), 7), _rng(seed, "mixed7a"))
        docs["scc6"] = _plain_doc(block_triangular(_rng(seed, "scc6"), (3, 3)),
                                  _rng(seed, "scc6a"))
        docs["sym8"] = _plain_doc(symmetric_stable(_rng(seed, "sym8"), 8), _rng(seed, "sym8a"))
        docs["fault_bidiag7"] = _plain_doc(fault_bidiagonal(7, 30.0))
    elif workload == "simulation":
        rng = _rng(seed, "simtri3")
        tri = upper_triangular3(rng)
        a = rng.uniform(-2, 2, 3)
        x0 = rng.uniform(-1, 1, 3)
        docs["simtri3"] = _model_doc(tri, np.eye(3), a, x0)
        docs["simtri3_x2"] = _model_doc(tri, np.eye(3), a, x0, [(2, rng.uniform(-2, 2))])
        rng = _rng(seed, "simdense10")
        b = _pinned_dense(rng, 10, [4])
        base = _dense_doc(rng, b)
        docs["simdense10"] = base
        docs["simdense10_x4"] = dict(base, interventions=[{"on": "X4",
                                                           "value": float(rng.uniform(-2, 2))}])
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return docs


def write_models(workload: str, seed: int, model_dir: str) -> dict[str, str]:
    """Generate and write the workload's model files; returns stem -> path."""
    os.makedirs(model_dir, exist_ok=True)
    paths = {}
    for stem, doc in generate(workload, seed).items():
        path = os.path.join(model_dir, f"{stem}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        paths[stem] = path
    return paths


# Operations whose inputs trigger the ill-conditioned-certificate fault:
# they fail on every run, whatever the seed.
FAULT_OPS = frozenset({
    "describe:fault_bidiag10",
    "stationary:fault_bidiag10",
    "stability:fault_bidiag10",
    "stationary:fault_conj20",
    "screen:fault_bidiag7",
})


def _cli(name, argv, check, **extra):
    op = {"name": name, "kind": "cli", "argv": argv, "check": check}
    op.update(extra)
    return op


def operations(workload: str, seed: int, model_dir: str, out_dir: str) -> list[dict]:
    """The ordered operation list of one round of the workload.

    Each operation names the check that its output must pass; `check`
    fields carry what the independent oracle needs (model file stems, the
    simulation parameters)."""
    m = lambda stem: os.path.join(model_dir, f"{stem}.json")
    ops: list[dict] = []
    if workload == "analysis":
        for p in ANALYSIS_DENSE_P:
            ops.append(_cli(f"describe:dense{p}", ["describe", m(f"dense{p}")],
                            {"kind": "describe", "model": f"dense{p}"}))
        for p in ANALYSIS_DENSE_P:
            ops.append(_cli(f"stationary:dense{p}", ["stationary", m(f"dense{p}")],
                            {"kind": "stationary", "model": f"dense{p}"}))
        for p in ANALYSIS_DENSE_P[:-1]:
            ops.append(_cli(f"stability:dense{p}", ["stability", m(f"dense{p}")],
                            {"kind": "stability", "model": f"dense{p}"}))
        for stem in ("tri3_x2", "tri3_x3"):
            ops.append(_cli(f"describe:{stem}", ["describe", m(stem)],
                            {"kind": "describe", "model": stem, "closed_form": True}))
            ops.append(_cli(f"stationary:{stem}", ["stationary", m(stem)],
                            {"kind": "stationary", "model": stem, "closed_form": True}))
        ops.append(_cli("describe:ctrl5", ["describe", m("ctrl5")],
                        {"kind": "describe", "model": "ctrl5"}))
        for p in (10, 15):
            reduced = os.path.join(out_dir, f"reduced_pin{p}.json")
            ops.append(_cli(f"intervene:pin{p}", ["intervene", m(f"pin{p}"), "-o", reduced],
                            {"kind": "intervene", "model": f"pin{p}"}, output=reduced))
            ops.append(_cli(f"describe:reduced_pin{p}", ["describe", reduced],
                            {"kind": "describe", "model": f"pin{p}", "reduced": True}))
        for cmd in ("describe", "stationary", "stability"):
            ops.append(_cli(f"{cmd}:fault_bidiag10", [cmd, m("fault_bidiag10")],
                            {"kind": cmd, "model": "fault_bidiag10"}))
        ops.append(_cli("stationary:fault_conj20", ["stationary", m("fault_conj20")],
                        {"kind": "stationary", "model": "fault_conj20"}))
    elif workload == "screening":
        for stem in ("mixed7", "scc6", "sym8", "fault_bidiag7"):
            ops.append(_cli(f"screen:{stem}", ["stability", m(stem), "--submatrices"],
                            {"kind": "screen", "model": stem}))
            ops.append(_cli(f"graph:{stem}", ["graph", m(stem)],
                            {"kind": "graph", "model": stem}))
        ops.append(_cli("graph-dot:scc6", ["graph", m("scc6"), "--dot"],
                        {"kind": "graph_dot", "model": "scc6"}))
    elif workload == "simulation":
        sim_seed = (int(seed) * 7919 + 17) % 2**31
        for stem, pinned in (("simtri3", "simtri3_x2"), ("simdense10", "simdense10_x4")):
            grid = ["--t", repr(SIM_T), "--steps", str(SIM_STEPS), "--seed", str(sim_seed)]
            common = {"model": stem, "pinned": pinned, "t": SIM_T, "steps": SIM_STEPS,
                      "seed": sim_seed}

            def sim(name, path, paths, flags, kind, **extra):
                check = dict(common, kind=kind, paths=paths, **extra)
                ops.append(_cli(f"{name}:{stem}", ["simulate", m(path), *grid, "--paths",
                                                   str(paths), *flags], check,
                                tags=["coupled_csv"] if kind == "coupled_csv" else []))

            sim("exact-csv", pinned, SIM_PATHS_CSV_EXACT, ["--method", "exact"], "exact_csv")
            sim("euler-csv", stem, SIM_PATHS_SMALL, ["--method", "euler"], "euler_csv")
            sim("exact-stats", pinned, SIM_PATHS_STATS, ["--method", "exact", "--stats-only"],
                "exact_stats")
            sim("coupled-csv", pinned, SIM_PATHS_SMALL, ["--coupled"], "coupled_csv",
                euler_op=f"euler-csv:{stem}")
            sim("coupled-stats", pinned, SIM_PATHS_COUPLED_STATS, ["--coupled", "--stats-only"],
                "coupled_stats")
            ops.append({
                "name": f"general-euler:{stem}", "kind": "general_euler",
                "model_path": m(pinned), "t": SIM_T, "steps": SIM_STEPS,
                "paths": SIM_PATHS_SMALL, "seed": sim_seed,
                "check": dict(common, kind="general_euler", paths=SIM_PATHS_SMALL,
                              coupled_op=f"coupled-csv:{stem}"),
            })
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for op in ops:
        op["fault"] = op["name"] in FAULT_OPS
    return ops


def output_file(op: dict) -> str:
    """File name under which round-1 output of an operation is kept."""
    return op["name"].replace(":", "__") + (".npy" if op["kind"] == "general_euler" else ".out")


def smallest_model(workload: str) -> str:
    """Stem of the model file that `startup_s` describes."""
    return {"analysis": "dense3", "screening": "scc6", "simulation": "simtri3_x2"}[workload]
