import json
import subprocess
import sys

import numpy as np
import pytest
from scipy.linalg import solve_continuous_lyapunov

from oucausal import cli

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


def test_simulate_validates_counts(tmp_path):
    out = run_cli("simulate", write_model(tmp_path, DEMO), "--paths", "0")
    assert out.returncode == 2
    out = run_cli("simulate", write_model(tmp_path, DEMO), "--steps", "0")
    assert out.returncode == 2


@pytest.mark.parametrize("flags", [
    ("--t", "2000", "--steps", "10"),
    ("--coupled", "--t", "6000", "--steps", "3000"),
])
def test_simulate_unstable_overflow_exits_5(tmp_path, flags):
    doc = dict(ROTATING, B=[[0.5, 0.2], [0.0, -1.0]],
               interventions=[{"on": "X2", "value": 0.0}])
    out = run_cli("simulate", write_model(tmp_path, doc), *flags, "--paths", "20")
    assert out.returncode == 5
    assert out.stdout == ""
    assert "RuntimeWarning" not in out.stderr
    assert "overflow float64" in out.stderr


def test_simulate_out_of_memory_exits_1(tmp_path, monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 745. GiB for an array")

    monkeypatch.setattr(cli, "simulate_paths", exhausted)
    code = cli.main(["simulate", write_model(tmp_path, DEMO), "--stats-only"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: out of memory: Unable to allocate 745. GiB for an array\n"


def test_output_flag_writes_file(tmp_path):
    target = tmp_path / "report.json"
    out = run_cli("describe", write_model(tmp_path, DEMO), "-o", str(target))
    assert out.returncode == 0
    assert out.stdout == ""
    assert json.loads(target.read_text())["stationarity"] == "Exists"
