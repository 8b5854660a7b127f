"""Runs one workload's operations in rounds, in a fresh single-threaded process.

Usage: python3 perfbench/worker.py PLAN_JSON RESULT_JSON

The plan (written by run.py) holds the operation list, the measuring time,
the output directory, whether to trace, and the set-up and start-up probe
commands (untraced runs only). Each operation is timed around
`oucausal.cli.main(argv)` (or one library call) with stdout and stderr
captured in memory. Round 1 outputs are written to the output directory for
the checks in run.py; every later round only hashes its outputs, so the
checks never add to this process's peak resident memory.

Untraced plan: rounds run until the next round would end past `seconds`
(at least MIN_ROUNDS). Traced plan: after the first (untraced) round,
traced and untraced rounds alternate, so the tracing overhead is measured
inside one warm process.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import oucausal  # noqa: E402
from oucausal import cli, modelfile, models, simulate  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 2
PROBES_PER_ROUND = 2


def _general_euler(op: dict) -> np.ndarray:
    """The paper's intervened general SDE, simulated by Euler: pin the OU
    model viewed as a general SDE, not through the OU calculus."""
    model, ivs = modelfile.load_model_file(op["model_path"])
    sde = models.intervene_general(models.ou_as_general(model), ivs[0])
    grid = simulate.uniform_grid(op["t"], op["steps"])
    return simulate.simulate_paths(sde, grid, op["paths"], op["seed"], method="euler").values


def run_op(op: dict) -> tuple[float, int, bytes, str]:
    """Run one operation; returns (seconds, exit code, output bytes, stderr)."""
    if op["kind"] == "general_euler":
        t0 = time.perf_counter()
        values = _general_euler(op)
        elapsed = time.perf_counter() - t0
        buf = io.BytesIO()
        np.save(buf, values)
        return elapsed, 0, buf.getvalue(), ""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(op["argv"])
        except SystemExit as exc:          # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:           # a traceback is a failed operation, not a crash
            code = -1
            err.write(f"{type(exc).__name__}: {exc}\n")
        elapsed = time.perf_counter() - t0
    text = out.getvalue()
    if op.get("output") and code == 0:
        with open(op["output"], encoding="utf-8") as handle:
            text = handle.read()
    return elapsed, code, text.encode("utf-8"), err.getvalue()


def run_round(ops, out_dir, first, tracer=None):
    """One pass over the operation list; returns per-op records."""
    records = []
    for op in ops:
        if tracer is not None:
            tracer.begin_op(op.get("tags", ()))
        elapsed, code, data, err = run_op(op)
        if tracer is not None:
            tracer.end_op(len(data) if op["kind"] == "cli" else 0)
        if first:
            with open(os.path.join(out_dir, workloads.output_file(op)), "wb") as handle:
                handle.write(data)
        records.append({"s": elapsed, "code": code, "sha": hashlib.sha256(data).hexdigest(),
                        "stderr": err[-400:]})
    return records


def run_probes(probes: dict, samples: dict) -> None:
    """Time each probe once, in a fresh interpreter. Called after every
    round, so these samples are spread over the run like the operations are.

    The set-up probe prints its own time (from before its import); the
    start-up probe is timed from outside, interpreter start included."""
    for name, argv in probes.items():
        t0 = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=60)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0 and name == "setup":
            raise RuntimeError(f"set-up probe failed: {proc.stderr[-1000:]}")
        value = float(proc.stdout.split()[-1]) if name == "setup" else elapsed
        samples.setdefault(name, []).append(
            {"s": value, "code": proc.returncode, "out": proc.stdout})


def main(plan_path: str, result_path: str) -> int:
    with open(plan_path, encoding="utf-8") as handle:
        plan = json.load(handle)
    ops, seconds, out_dir = plan["ops"], plan["seconds"], plan["out_dir"]
    probes = plan["probes"]
    rounds, traced_flags, round_s, iteration_s, samples = [], [], [], [], {}
    tracer = tracing.Tracer() if plan["trace"] else None
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        t0 = time.perf_counter()
        if traced:
            with tracer.installed(oucausal):
                rounds.append(run_round(ops, out_dir, False, tracer))
            tracer.end_round()
        else:
            rounds.append(run_round(ops, out_dir, not rounds))
        round_s.append(time.perf_counter() - t0)
        traced_flags.append(traced)
        for _ in range(PROBES_PER_ROUND if probes else 0):
            run_probes(probes, samples)
        iteration_s.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        need = MIN_ROUNDS if tracer is None else 1 + 2 * MIN_TRACED_ROUNDS
        if len(rounds) >= need and elapsed + max(iteration_s) > seconds:
            break
    result = {
        "rounds": rounds,
        "traced": traced_flags,
        "round_s": round_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "probes": samples,
        "trace": tracer.summary() if tracer is not None else None,
    }
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1], sys.argv[2]))
