import ast
import contextlib
import csv
import io
import json
import pathlib
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg import solve_continuous_lyapunov

from oucausal import cli, errors, simulate, stability, stationary
from oucausal.errors import NotPositiveDefiniteError
from oucausal.modelfile import load_model_file
from oucausal.models import intervene_seq
from oucausal.simulate import (
    coupled_intervention_diff,
    path_stats,
    simulate_paths,
    uniform_grid,
)
from util import SWAMPED

DEMO = {
    "p": 3,
    "d": 3,
    "x0": [0.0, 0.0, 0.0],
    "A": [1.0, 2.0, 3.0],
    "B": [[-1.0, 0.5, 0.3], [0.0, -2.0, 0.7], [0.0, 0.0, -1.5]],
    "sigma": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
}

ROTATING = {
    "p": 2,
    "d": 2,
    "x0": [0.0, 0.0],
    "A": [0.0, 0.0],
    "B": [[1.0, 7.0], [-1.0, -3.0]],
    "sigma": [[1.0, 0.0], [0.0, 1.0]],
}

DEMO_DOT = (
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


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "oucausal", *args],
        capture_output=True, text=True,
    )


def write_model(tmp_path, doc, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# ------------------------------------------------------------------- describe

def test_describe_demo_model(tmp_path):
    out = run_cli("describe", write_model(tmp_path, DEMO))
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["stationarity"] == "Exists"
    assert doc["stability"]["classification"] == "Stable"
    assert doc["controllability_rank"] == 3
    assert doc["stationary"]["mean"] == DEMO["A"]


def test_describe_rotating_counterexample(tmp_path):
    out = run_cli("describe", write_model(tmp_path, ROTATING))
    doc = json.loads(out.stdout)
    assert doc["stability"]["classification"] == "Stable"
    assert abs(doc["stability"]["spectral_abscissa"] + 1.0) <= 1e-6


def test_describe_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    out = run_cli("describe", str(path))
    assert out.returncode == 2
    assert out.stdout == ""


def _assert_one_line_model_file_error(out):
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1, out.stderr


def test_model_file_not_utf8_exits_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{}")
    _assert_one_line_model_file_error(run_cli("describe", str(path)))


def test_model_file_nested_past_the_recursion_limit_exits_2(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    _assert_one_line_model_file_error(run_cli("describe", str(path)))


def test_non_decimal_digit_coordinates_exit_2(tmp_path):
    # "¹" and "²" pass str.isdigit() but not int(); "٢" is a decimal digit.
    path = write_model(tmp_path, DEMO)
    _assert_one_line_model_file_error(run_cli("intervene", path, "--set", "²=1"))
    doc = dict(DEMO, interventions=[{"on": "¹", "value": 0.0}])
    _assert_one_line_model_file_error(
        run_cli("describe", write_model(tmp_path, doc, "sup.json")))
    by_digit = run_cli("intervene", path, "--set", "٢=1")
    assert by_digit.returncode == 0, by_digit.stderr
    assert by_digit.stdout == run_cli("intervene", path, "--set", "2=1").stdout


def test_describe_dimension_error(tmp_path):
    doc = dict(DEMO, B=[[-1.0, 0.5], [0.0, -2.0]])
    out = run_cli("describe", write_model(tmp_path, doc))
    assert out.returncode == 3
    assert "B" in out.stderr
    assert out.stdout == ""


def test_describe_unknown_key_names_it(tmp_path):
    out = run_cli("describe", write_model(tmp_path, dict(DEMO, bogus=1)))
    assert out.returncode == 2
    assert "bogus" in out.stderr


# ------------------------------------------------------------------ intervene

def test_intervene_set_flag(tmp_path):
    out = run_cli("intervene", write_model(tmp_path, DEMO), "--set", "X2=0")
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["p"] == 2
    assert doc["labels"] == ["X1", "X3"]
    assert doc["B"] == [[-1.0, 0.3], [0.0, -1.5]]
    assert doc["intervention_record"]["fixed"] == [{"label": "X2", "value": 0.0}]


def test_intervene_without_flags_is_identity(tmp_path):
    out = run_cli("intervene", write_model(tmp_path, DEMO))
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    record = doc.pop("intervention_record")
    assert record["fixed"] == []
    assert doc == dict(DEMO, labels=["X1", "X2", "X3"])


def test_intervene_by_index_matches_label(tmp_path):
    by_label = run_cli("intervene", write_model(tmp_path, DEMO), "--set", "X2=1.5")
    by_index = run_cli("intervene", write_model(tmp_path, DEMO), "--set", "2=1.5")
    assert by_label.stdout == by_index.stdout


def test_intervene_duplicate_exits_4(tmp_path):
    out = run_cli("intervene", write_model(tmp_path, DEMO),
                  "--set", "X2=1", "--set", "X2=2")
    assert out.returncode == 4
    assert out.stdout == ""


def test_intervene_singular_reduced_exits_4(tmp_path):
    doc = dict(ROTATING, B=[[0.0, 1.0], [1.0, 0.0]])
    out = run_cli("intervene", write_model(tmp_path, doc), "--set", "X1=1")
    assert out.returncode == 4


def test_intervene_unknown_label_exits_2(tmp_path):
    out = run_cli("intervene", write_model(tmp_path, DEMO), "--set", "Z9=1")
    assert out.returncode == 2


def test_intervened_model_round_trips(tmp_path):
    first = run_cli("intervene", write_model(tmp_path, DEMO), "--set", "X2=0")
    reduced_path = tmp_path / "reduced.json"
    reduced_path.write_text(first.stdout)
    out = run_cli("describe", str(reduced_path))
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["p"] == 2 and doc["stationarity"] == "Exists"


def test_file_interventions_applied_on_load(tmp_path):
    doc = dict(DEMO, interventions=[{"on": "X2", "value": 0.0}])
    out = run_cli("stationary", write_model(tmp_path, doc))
    assert out.returncode == 0
    law = json.loads(out.stdout)
    assert len(law["mean"]) == 2


# ----------------------------------------------------------------- stationary

def test_stationary_json_schema(tmp_path):
    out = run_cli("stationary", write_model(tmp_path, DEMO))
    doc = json.loads(out.stdout)
    assert set(doc) == {"mean", "cov"}
    assert doc["mean"] == DEMO["A"]
    cov = np.array(doc["cov"])
    assert cov.shape == (3, 3)
    assert np.allclose(cov, cov.T)


def test_stationary_nonexistent_fails(tmp_path):
    doc = dict(ROTATING, B=[[1.0, 0.0], [0.0, 1.0]])
    out = run_cli("stationary", write_model(tmp_path, doc))
    assert out.returncode == 1
    assert out.stdout == ""


@pytest.mark.parametrize("b", SWAMPED.values(), ids=SWAMPED.keys())
def test_numerically_singular_unstable_b_has_no_stationary_law(tmp_path, capsys, b):
    path = write_model(tmp_path, dict(DEMO, B=b.tolist()))
    assert cli.main(["stationary", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no stationary distribution" in captured.err
    assert cli.main(["describe", path]) == 0
    assert json.loads(capsys.readouterr().out)["stationarity"] == "NotExists"


def test_stationary_with_entries_near_float64_max(tmp_path):
    # max|B| >= 2^1023, where the solver's power-of-two prescaling must not
    # overflow. X(B, Q) = X(B / s, Q) / s for s > 0 gives the oracle.
    b = np.array([[-1e308, 0.0], [5e307, -1e308]])
    out = run_cli("stationary", write_model(tmp_path, dict(ROTATING, B=b.tolist())))
    assert out.returncode == 0, out.stderr
    s = 2.0**1023
    expect = solve_continuous_lyapunov(b / s, -np.eye(2)) / s
    cov = np.array(json.loads(out.stdout)["cov"])
    assert np.max(np.abs(cov - expect)) <= 1e-12 * np.max(np.abs(expect))


def test_stationary_exists_with_column_sums_beyond_float64_max(tmp_path, capsys):
    # |B|_1 = 2e308 overflows, yet B is stable (eigenvalues -1e308): the
    # singular-B guard must take kappa of B divided by its power of two.
    b = [[-1e308, 0.0], [1e308, -1e308]]
    path = write_model(tmp_path, dict(ROTATING, B=b))
    assert cli.main(["describe", path]) == 0
    assert json.loads(capsys.readouterr().out)["stationarity"] == "Exists"
    assert cli.main(["stationary", path]) == 0


@pytest.mark.parametrize("b, sigma, scale", [
    ([[-1.0, 0.0], [0.0, -1.0]], 2.0**-540, 2.0**-1060),  # X for Q = I overflowed
    ([[-1.0, 0.3], [0.0, -2.0]], 1e154, 1.0),             # sigma sigma^T overflowed
])
def test_stationary_near_the_float64_extremes(tmp_path, capsys, b, sigma, scale):
    # G(s B, sigma) = G(B, sigma) / s; the oracle solves at unit scale.
    doc = dict(ROTATING, B=(scale * np.array(b)).tolist(), sigma=(sigma * np.eye(2)).tolist())
    assert cli.main(["stationary", write_model(tmp_path, doc)]) == 0
    cov = np.array(json.loads(capsys.readouterr().out)["cov"]) / sigma * scale / sigma
    expect = solve_continuous_lyapunov(np.array(b), -np.eye(2))
    assert np.max(np.abs(cov - expect)) <= 1e-15 * np.max(np.abs(expect))


def test_describe_reports_rank_p_for_a_spanning_sigma(tmp_path, capsys):
    doc = {"p": 4, "d": 4, "x0": [0.0] * 4, "A": [0.0] * 4, "B": (-np.eye(4)).tolist(),
           "sigma": np.diag([1.0, 1.0, 1.0, 1e-15]).tolist()}
    assert cli.main(["describe", write_model(tmp_path, doc)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["sigma_full_column_span"] is True
    assert report["controllability_rank"] == 4


def test_describe_with_entries_near_float64_max(tmp_path, capsys):
    # The bisection midpoint of the Gershgorin bracket [-1.5e308, -5e307]
    # must not overflow: 0.5 * (lo + hi) read -inf and made B - mid I NaN.
    b = [[-1e308, 0.0], [5e307, -1e308]]
    path = write_model(tmp_path, dict(ROTATING, B=b))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main(["describe", path])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    stability = json.loads(captured.out)["stability"]
    assert stability["classification"] == "Stable"
    assert abs(stability["spectral_abscissa"] + 1e308) <= 1e-12 * 1e308


@pytest.mark.parametrize("command", ["describe", "stationary"])
def test_covariance_overflow_exits_3(tmp_path, capsys, command):
    doc = dict(ROTATING, B=(-1e-200 * np.eye(2)).tolist(), sigma=(1e110 * np.eye(2)).tolist())
    code = cli.main([command, write_model(tmp_path, doc)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "error: the stationary covariance overflows float64\n"


def test_indefinite_covariance_fails_describe_as_stationary(tmp_path, capsys, monkeypatch):
    # The solver can return an indefinite G for a stable, strongly
    # non-normal B; the law's validation then fails. stationary_exists still
    # returns its verdict, and describe reports the error stationary does.
    def indefinite(mean, cov):
        raise NotPositiveDefiniteError("cov is not positive semidefinite: pivot -1")

    monkeypatch.setattr(stationary, "GaussianLaw", indefinite)
    path = write_model(tmp_path, DEMO)
    verdict = stationary.stationary_exists(load_model_file(path)[0])
    assert verdict.verdict is stationary.Verdict.EXISTS and verdict.law is None
    for command in ("describe", "stationary"):
        assert cli.main([command, path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: cov is not positive semidefinite: pivot -1\n"


def test_describe_decides_stationarity_in_one_solve(tmp_path, capsys, monkeypatch):
    # The bisection solves with Q = I only; the stationarity solve is the
    # one that carries sigma sigma^T != I.
    doc = dict(DEMO, sigma=[[1.0, 0.0, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 2.0]])
    calls = {"stationarity": 0, "is_stable": 0}
    solve, is_stable = stability.solve_lyapunov_stack, stability.is_stable

    def counted_solve(b, q):
        calls["stationarity"] += not np.array_equal(q, np.broadcast_to(np.eye(3), q.shape))
        return solve(b, q)

    def counted_is_stable(b):
        calls["is_stable"] += 1
        return is_stable(b)

    monkeypatch.setattr(stability, "solve_lyapunov_stack", counted_solve)
    monkeypatch.setattr(stability, "is_stable", counted_is_stable)
    assert cli.main(["describe", write_model(tmp_path, doc)]) == 0
    assert json.loads(capsys.readouterr().out)["stationarity"] == "Exists"
    assert calls == {"stationarity": 1, "is_stable": 0}


# ------------------------------------------------------------------ stability

def test_stability_csv_single_row(tmp_path):
    out = run_cli("stability", write_model(tmp_path, ROTATING))
    lines = out.stdout.strip().splitlines()
    assert lines[0] == "removed_set,classification,abscissa"
    assert len(lines) == 2
    assert lines[1].startswith("{},Stable,")


def test_stability_submatrices_rows(tmp_path):
    out = run_cli("stability", write_model(tmp_path, ROTATING), "--submatrices")
    lines = out.stdout.strip().splitlines()
    rows = {line.split(",")[0]: line.split(",")[1] for line in lines[1:]}
    assert rows == {"{}": "Stable", "{1}": "Stable", "{2}": "Unstable"}


@pytest.mark.parametrize("b, row", [
    ([[-2.0, 1.0], [1.0, -2.0]], "{},Stable,-1.0\n"),
    ([[1.0, 2.0], [2.0, -3.0]], "{},Unstable,1.8284271247461898\n"),
], ids=["stable", "unstable"])
def test_stability_single_row_of_symmetric_b(tmp_path, b, row):
    # The one row is the screen's empty-removal entry; on a symmetric B the
    # screen first runs its fast-path gate, which must not change the bytes.
    out = run_cli("stability", write_model(tmp_path, {**ROTATING, "B": b}))
    assert (out.returncode, out.stderr) == (0, "")
    assert out.stdout == "removed_set,classification,abscissa\n" + row


@pytest.mark.parametrize("command", ["stability", "describe"])
def test_infinite_tol_is_a_parse_error(tmp_path, command):
    # An infinite band would read every B as SemistableNotStable.
    doc = {**ROTATING, "B": [[1.0, 2.0], [2.0, -3.0]]}
    out = run_cli(command, write_model(tmp_path, doc), "--tol", "inf")
    assert (out.returncode, out.stdout) == (2, "")
    assert "must be positive and finite" in out.stderr


# ---------------------------------------------------------------------- graph

def test_graph_dot_bytes(tmp_path):
    path = write_model(tmp_path, DEMO)
    first = run_cli("graph", path, "--dot")
    second = run_cli("graph", path, "--dot")
    assert first.returncode == 0
    assert first.stdout == DEMO_DOT
    assert first.stdout == second.stdout


def test_graph_after_intervention(tmp_path):
    reduced = run_cli("intervene", write_model(tmp_path, DEMO), "--set", "X2=0")
    reduced_path = tmp_path / "reduced.json"
    reduced_path.write_text(reduced.stdout)
    out = run_cli("graph", str(reduced_path), "--dot")
    assert out.stdout == (
        'digraph G {\n'
        '  "X1";\n'
        '  "X3";\n'
        '  "X1" -> "X1";\n'
        '  "X3" -> "X1";\n'
        '  "X3" -> "X3";\n'
        '}\n'
    )


def test_graph_nan_tolerance_is_a_dimension_error(tmp_path):
    out = run_cli("graph", write_model(tmp_path, DEMO), "--tol", "nan")
    assert (out.returncode, out.stdout) == (3, "")
    assert "tol must be nonnegative" in out.stderr


def test_graph_json(tmp_path):
    out = run_cli("graph", write_model(tmp_path, DEMO))
    doc = json.loads(out.stdout)
    assert doc["nodes"] == ["X1", "X2", "X3"]
    assert len(doc["edges"]) == 6


# ------------------------------------------------------------------- simulate

def test_simulate_csv_layout(tmp_path):
    out = run_cli("simulate", write_model(tmp_path, DEMO),
                  "--t", "1.0", "--steps", "4", "--paths", "3", "--seed", "1")
    lines = out.stdout.strip().splitlines()
    assert lines[0] == "path,t,X1,X2,X3"
    assert len(lines) == 1 + 3 * 5
    assert lines[1].split(",")[:2] == ["0", "0.0"]


def test_simulate_stats_match_stationary(tmp_path):
    path = write_model(tmp_path, DEMO)
    sim = run_cli("simulate", path, "--method", "exact", "--stats-only",
                  "--t", "50", "--steps", "1", "--paths", "4000", "--seed", "11")
    stats = json.loads(sim.stdout)
    stat = json.loads(run_cli("stationary", path).stdout)
    mean = np.array(stats["mean"])
    se = np.array(stats["se_mean"])
    assert np.all(np.abs(mean - np.array(stat["mean"])) <= 4 * se)


def test_simulate_coupled_columns(tmp_path):
    doc = dict(DEMO, B=[[-1.0, 0.0, 0.0], [0.0, -2.0, 0.0], [0.0, 0.0, -1.5]],
               interventions=[{"on": "X2", "value": 1.0}])
    out = run_cli("simulate", write_model(tmp_path, doc), "--coupled",
                  "--t", "1.0", "--steps", "5", "--paths", "2", "--seed", "3")
    lines = out.stdout.strip().splitlines()
    assert lines[0] == "path,t,X1,X2,X3,D1,D2,D3"
    for line in lines[1:]:
        cells = line.split(",")
        assert float(cells[5]) == 0.0   # D1: diagonal B, shared noise
        assert float(cells[7]) == 0.0   # D3


def test_simulate_coupled_needs_one_intervention(tmp_path):
    out = run_cli("simulate", write_model(tmp_path, DEMO), "--coupled")
    assert out.returncode == 2


def test_simulate_coupled_singular_pin_exits_4(tmp_path):
    doc = dict(ROTATING, B=[[0.0, 1.0], [1.0, 0.0]],
               interventions=[{"on": "X1", "value": 1.0}])
    out = run_cli("simulate", write_model(tmp_path, doc), "--coupled",
                  "--steps", "2", "--paths", "2")
    assert (out.returncode, out.stdout) == (4, "")
    assert out.stderr.startswith("error: stage 1: ")


def test_simulate_validates_counts(tmp_path):
    out = run_cli("simulate", write_model(tmp_path, DEMO), "--paths", "0")
    assert out.returncode == 2
    out = run_cli("simulate", write_model(tmp_path, DEMO), "--steps", "0")
    assert out.returncode == 2


@pytest.mark.parametrize("flags", [
    ("--t", "2000", "--steps", "10"),
    ("--coupled", "--t", "6000", "--steps", "3000"),
    ("--stats-only", "--t", "2000", "--steps", "10"),
    ("--coupled", "--stats-only", "--t", "6000", "--steps", "3000"),
])
def test_simulate_unstable_overflow_exits_5(tmp_path, flags):
    doc = dict(ROTATING, B=[[0.5, 0.2], [0.0, -1.0]],
               interventions=[{"on": "X2", "value": 0.0}])
    out = run_cli("simulate", write_model(tmp_path, doc), *flags, "--paths", "20")
    assert out.returncode == 5
    assert out.stdout == ""
    assert "RuntimeWarning" not in out.stderr
    assert "overflow float64" in out.stderr


@pytest.mark.parametrize("model, flags", [
    # t |B|_1 overflows in the exact sampler's doubling count
    (dict(ROTATING, B=[[-1.0, 0.5], [0.0, -2.0]]), ("--t", "1e308", "--steps", "1")),
    # (X - mean)^T (X - mean) overflows, though the covariance, about 1e308, does not
    (dict(ROTATING, B=[[-1.0, 0.0], [0.0, -1.0]], sigma=[[1e154, 0.0], [0.0, 1e154]]),
     ("--method", "euler", "--paths", "50", "--t", "1", "--steps", "2")),
])
def test_simulate_stats_only_near_float64_max(tmp_path, capsys, model, flags):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        out = _run_in_process(capsys, "simulate", write_model(tmp_path, model),
                              "--stats-only", *flags)
    stats = json.loads(out)
    assert np.all(np.isfinite(stats["cov"])) and np.all(np.isfinite(stats["se_mean"]))


def test_simulate_exact_with_b_norm_past_float64_max(tmp_path):
    # |B|_1 = 2e308 overflows float64; the exact transition is still sized.
    model = dict(ROTATING, B=[[-1e308, 0.0], [1e308, -1e308]])
    out = run_cli("simulate", write_model(tmp_path, model), "--t", "1", "--steps", "1",
                  "--stats-only")
    assert out.returncode == 0, out.stderr
    assert out.stderr == ""
    assert np.all(np.isfinite(json.loads(out.stdout)["cov"]))


def test_simulate_out_of_memory_exits_1(tmp_path, monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 745. GiB for an array")

    monkeypatch.setattr(simulate, "run", exhausted)
    code = cli.main(["simulate", write_model(tmp_path, DEMO), "--stats-only"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: out of memory: Unable to allocate 745. GiB for an array\n"


@pytest.mark.parametrize("flags", [("--stats-only",), ("--coupled", "--stats-only")])
def test_simulate_stats_only_one_path_rejected_before_any_step(
        tmp_path, monkeypatch, capsys, flags):
    calls = []

    def counted(*args):
        calls.append(args)
        raise AssertionError("no step may run")

    monkeypatch.setattr(simulate, "_step_normals", counted)
    path = write_model(tmp_path, PINNED_DEMO)
    code = cli.main(["simulate", path, *flags, "--paths", "1", "--steps", "200000"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "error: path statistics require n_paths >= 2\n"
    assert calls == []


def test_analysis_commands_do_not_import_numpy_random(tmp_path):
    # numpy.random costs start-up time and memory; only simulate needs it.
    path = write_model(tmp_path, DEMO)
    script = (
        "import os, sys\n"
        "import numpy\n"
        "before = 'numpy.random' in sys.modules\n"
        "from oucausal import cli\n"
        "codes = [cli.main(['describe', sys.argv[1], '-o', os.devnull]),\n"
        "         cli.main(['stability', sys.argv[1], '--submatrices', '-o', os.devnull])]\n"
        "print(codes, before, 'numpy.random' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", script, path],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    codes, before, after = out.stdout.rsplit(" ", 2)
    assert codes == "[0, 0]", out.stderr
    assert after.strip() == before


def test_modelfile_import_loads_no_analysis_module():
    script = (
        "import sys\n"
        "import oucausal.modelfile\n"
        "print([m for m in ('oucausal.simulate', 'oucausal.stability', 'oucausal.stationary')\n"
        "       if m in sys.modules])\n"
    )
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"


@pytest.mark.parametrize("command", ["describe", "stationary", "stability", "intervene",
                                     "graph"])
def test_analysis_commands_do_not_load_the_simulator(tmp_path, command):
    # intervene and graph run no analysis either, so they load none of it.
    unused = {"oucausal.simulate"}
    if command in ("intervene", "graph"):
        unused |= {"oucausal.stability", "oucausal.stationary"}
    # -X importtime names every module the interpreter imports, one per line.
    out = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "oucausal", command,
         write_model(tmp_path, DEMO)], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout
    loaded = {line.rsplit("|", 1)[-1].strip() for line in out.stderr.splitlines()
              if line.startswith("import time:")}
    assert "oucausal.cli" in loaded
    assert unused & loaded == set()


def _csv_writer_reference(header, grid_t, columns):
    # The row-by-row csv.writer formatting that _paths_csv must reproduce.
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    n_paths, n_times, _ = columns.shape
    for i in range(n_paths):
        for k in range(n_times):
            writer.writerow([i, repr(float(grid_t[k]))]
                            + [repr(float(v)) for v in columns[i, k]])
    return buffer.getvalue()


def test_paths_csv_matches_csv_writer():
    special = [-0.0, 5e-324, 0.1, 2.0, 1e16, 1e22, -1.5e-7]
    columns = np.array(special * 6).reshape(3, 2, 7)
    columns[1] *= -3.0
    grid_t = np.array([0.0, 0.1])
    header = ["path", "t", "X1", "a,b", 'q"x', "X4", "X5", "X6", "X7"]
    text = "".join(cli._paths_csv(header, grid_t, columns))
    assert text == _csv_writer_reference(header, grid_t, columns)
    assert "-0.0,5e-324,0.1,2.0,1e+16,1e+22,-1.5e-07" in text


def _run_in_process(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return captured.out


PINNED_DEMO = dict(DEMO, x0=[0.5, -1.0, 2.0], interventions=[{"on": "X2", "value": 1.5}])


@pytest.mark.parametrize("method", ["exact", "euler"])
def test_simulate_stats_only_equals_full_bundle_stats(tmp_path, capsys, method):
    path = write_model(tmp_path, PINNED_DEMO)
    out = _run_in_process(capsys, "simulate", path, "--stats-only", "--method", method,
                          "--t", "2.5", "--steps", "17", "--paths", "300", "--seed", "9")
    model, ivs = load_model_file(path)
    model, _ = intervene_seq(model, ivs)
    grid = uniform_grid(2.5, 17)
    bundle = simulate_paths(model, grid, 300, 9, method=method)
    assert out == cli._stats_json(grid, bundle.labels, 300, path_stats(bundle, -1))


def test_simulate_coupled_stats_only_equals_full_bundle_stats(tmp_path, capsys):
    path = write_model(tmp_path, PINNED_DEMO)
    out = _run_in_process(capsys, "simulate", path, "--coupled", "--stats-only",
                          "--t", "2.5", "--steps", "17", "--paths", "300", "--seed", "9")
    model, ivs = load_model_file(path)
    grid = uniform_grid(2.5, 17)
    diff = coupled_intervention_diff(model, ivs[0], grid, 300, 9)
    assert out == cli._stats_json(grid, diff.labels, 300, path_stats(diff, -1))


def test_simulate_coupled_csv_columns_equal_separate_runs(tmp_path, capsys):
    pinned = write_model(tmp_path, PINNED_DEMO, "pinned.json")
    free = write_model(tmp_path, dict(DEMO, x0=PINNED_DEMO["x0"]), "free.json")
    grid_flags = ("--t", "1.5", "--steps", "12", "--paths", "7", "--seed", "4")
    coupled = _run_in_process(capsys, "simulate", pinned, "--coupled", *grid_flags)
    euler = _run_in_process(capsys, "simulate", free, "--method", "euler", *grid_flags)
    # The coupled recursion is Euler: --method euler changes nothing, and an
    # explicit --method exact is a usage error rather than silently ignored.
    assert _run_in_process(capsys, "simulate", pinned, "--coupled", "--method", "euler",
                           *grid_flags) == coupled
    code = cli.main(["simulate", pinned, "--coupled", "--method", "exact", *grid_flags])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "error: --coupled steps by Euler only; --method exact does not apply\n"
    coupled_rows = [line.split(",") for line in coupled.splitlines()]
    euler_rows = [line.split(",") for line in euler.splitlines()]
    assert len(coupled_rows) == len(euler_rows) == 1 + 7 * 13
    # path, t and the X columns are the --method euler CSV, byte for byte.
    assert [row[:5] for row in coupled_rows] == euler_rows
    model, ivs = load_model_file(pinned)
    diff = coupled_intervention_diff(model, ivs[0], uniform_grid(1.5, 12), 7, 4)
    d_cells = [row[5:] for row in coupled_rows[1:]]
    assert d_cells == [[repr(v) for v in row] for row in diff.values.reshape(-1, 3).tolist()]


@pytest.mark.parametrize("method", ["exact", "euler"])
def test_simulate_csv_equals_simulate_paths_of_the_reduced_model(tmp_path, capsys, method):
    path = write_model(tmp_path, PINNED_DEMO)
    out = _run_in_process(capsys, "simulate", path, "--method", method,
                          "--t", "1.5", "--steps", "12", "--paths", "7", "--seed", "4")
    model, ivs = load_model_file(path)
    grid = uniform_grid(1.5, 12)
    bundle = simulate_paths(intervene_seq(model, ivs)[0], grid, 7, 4, method=method)
    rows = [line.split(",") for line in out.splitlines()]
    assert rows[0] == ["path", "t", *bundle.labels]
    assert [row[:2] for row in rows[1:]] == [[str(i), repr(t)]
                                             for i in range(7) for t in grid.t.tolist()]
    values = bundle.values.reshape(-1, len(bundle.labels)).tolist()
    assert [row[2:] for row in rows[1:]] == [[repr(v) for v in row] for row in values]


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="ru_maxrss is in kilobytes on Linux")
def test_simulate_stats_only_memory_does_not_grow_with_steps(tmp_path):
    # Each run reports its own peak through RUSAGE_SELF in a fresh
    # interpreter; RUSAGE_CHILDREN would keep the maximum of every child.
    path = write_model(tmp_path, DEMO)
    script = (
        "import os, resource, sys\n"
        "from oucausal import cli\n"
        "code = cli.main(['simulate', sys.argv[1], '--stats-only', '--paths', '20000',\n"
        "                 '--steps', sys.argv[2], '--t', '1.0', '-o', os.devnull])\n"
        "print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    peaks_mb = []
    for steps in ("5", "200"):
        out = subprocess.run([sys.executable, "-c", script, path, steps],
                             capture_output=True, text=True)
        code, peak_kb = out.stdout.split()
        assert code == "0", out.stderr
        peaks_mb.append(int(peak_kb) / 1024.0)
    # Holding every state would add 20000 x 196 x 3 doubles, about 94 MB.
    assert abs(peaks_mb[1] - peaks_mb[0]) < 10.0, peaks_mb


def test_simulate_csv_is_held_once_and_equal_on_every_sink(tmp_path, capsys):
    # The chunks go to every sink in order and are never joined. The
    # simulated values and one path's strings add about 0.4 of the CSV's
    # size to the peak.
    path = write_model(tmp_path, DEMO)
    argv = ["simulate", path, "--paths", "1000", "--steps", "50", "--seed", "4"]
    target = tmp_path / "paths.csv"
    tracemalloc.start()
    try:
        assert cli.main([*argv, "-o", str(target)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    text = target.read_text(encoding="utf-8")
    assert peak < 1.8 * len(text)
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        assert cli.main(argv) == 0
    assert captured.getvalue() == text == _run_in_process(capsys, *argv)


def test_output_flag_writes_file(tmp_path):
    target = tmp_path / "report.json"
    out = run_cli("describe", write_model(tmp_path, DEMO), "-o", str(target))
    assert out.returncode == 0
    assert out.stdout == ""
    assert json.loads(target.read_text())["stationarity"] == "Exists"


@pytest.mark.parametrize("error, code, message", [
    (errors.ModelFileError("bad file"), 2, "error: bad file\n"),
    (errors.DimensionError("bad shape"), 3, "error: bad shape\n"),
    (errors.NonFiniteError("nan entry"), 3, "error: nan entry\n"),
    (errors.SingularReducedMatrixError("singular", stage=1), 4, "error: singular\n"),
    (errors.DuplicateInterventionError("pinned twice"), 4, "error: pinned twice\n"),
    (errors.BadCoordinateError("no X9"), 4, "error: no X9\n"),
    (errors.SimulationOverflowError("overflow"), 5, "error: overflow\n"),
    (errors.OuCausalError("other"), 1, "error: other\n"),
    (errors.NotPositiveDefiniteError("unlisted subclass"), 1, "error: unlisted subclass\n"),
    (MemoryError("Unable to allocate 8. GiB"), 1,
     "error: out of memory: Unable to allocate 8. GiB\n"),
])
def test_main_maps_each_error_to_its_exit_code(monkeypatch, capsys, error, code, message):
    def failing(args):
        raise error

    monkeypatch.setattr(cli, "cmd_describe", failing)
    assert cli.main(["describe", "model.json"]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message


def test_cli_imports_no_private_name_from_the_package():
    # The CLI reaches the package through public (or module-public) names only.
    tree = ast.parse(pathlib.Path(cli.__file__).read_text(encoding="utf-8"))
    private = [f"{node.module}.{alias.name}" for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.level > 0 or (node.module or "").split(".")[0] == "oucausal")
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


# ------------------------------------------------------------ output failures

@pytest.mark.parametrize("target", ["", "missing/report.json"])
def test_unwritable_output_exits_2(tmp_path, capsys, target):
    path = write_model(tmp_path, DEMO)
    code = cli.main(["describe", path, "-o", str(tmp_path / target)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write output: [Errno ")
    assert captured.err.count("\n") == 1


def test_closed_stdout_pipe_exits_1_without_traceback(tmp_path):
    # About 12 MB of CSV, far more than a pipe buffers.
    proc = subprocess.Popen(
        [sys.executable, "-m", "oucausal", "simulate", write_model(tmp_path, DEMO),
         "--paths", "2000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert proc.stdout.readline() == "path,t,X1,X2,X3\n"
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert stderr == ""  # no traceback, no message


@pytest.mark.skipif(not pathlib.Path("/dev/full").exists(), reason="needs /dev/full")
def test_full_stdout_exits_1_with_one_line_message(tmp_path):
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "oucausal", "describe", write_model(tmp_path, DEMO)],
            stdout=full, stderr=subprocess.PIPE, text=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: cannot write output: [Errno 28] ")
    assert proc.stderr.count("\n") == 1  # no traceback


# ------------------------------------------------------- one parser per process

def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_repeated_calls_in_one_process_match_fresh_processes(tmp_path, capsys):
    # Each pair runs a command with a flag, then without it: the cached
    # parser must not carry a value from one call into the next.
    m = write_model(tmp_path, DEMO, "m.json")
    p = write_model(tmp_path, PINNED_DEMO, "p.json")
    small = ["--paths", "20", "--steps", "5", "--method", "euler"]
    sequence = [
        ["intervene", m, "--set", "X1=1"], ["intervene", m],
        ["simulate", p, "--coupled", "--stats-only", *small], ["simulate", p, "--stats-only", *small],
        ["stability", m, "--submatrices"], ["stability", m],
        ["graph", m, "--tol", "0.5"], ["graph", m],
    ]
    for argv in sequence:
        code = cli.main(argv)
        captured = capsys.readouterr()
        fresh = run_cli(*argv)
        assert (code, captured.out, captured.err) == (0, fresh.stdout, fresh.stderr), argv
        assert fresh.returncode == 0


def test_handler_replaced_after_the_parser_is_built_runs(tmp_path, capsys, monkeypatch):
    path = write_model(tmp_path, DEMO)
    assert cli.main(["describe", path]) == 0
    monkeypatch.setattr(cli, "cmd_describe", lambda args: f"patched {args.tol}\n")
    assert cli.main(["describe", path, "--tol", "0.5"]) == 0
    assert capsys.readouterr().out.endswith("patched 0.5\n")


def test_valid_call_after_a_usage_error(tmp_path, capsys):
    path = write_model(tmp_path, DEMO)
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["simulate", path, "--paths", "0"])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    fresh = run_cli("simulate", path, "--paths", "0")
    assert (captured.out, captured.err) == ("", fresh.stderr)
    assert captured.err.endswith("error: argument --paths: '0' must be >= 1\n")
    assert _run_in_process(capsys, "stationary", path) == run_cli("stationary", path).stdout
