"""oucausal benchmark: one workload, one seed, one run.

Usage (from the repository root):

    python3 perfbench/run.py --workload analysis --seed 1 --seconds 24 --trace 0

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics` (value and unit of every metric). Lines before it,
prefixed with '#', print the same metrics for a reader. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 they are the per-module
ones from a traced run.

A run:
1. sets up once, untimed: a fresh interpreter imports oucausal, generates
   and writes the model files (perfbench/setup_models.py);
2. runs the workload's operation list in rounds inside one fresh worker
   process (perfbench/worker.py) for --seconds, and keeps each operation's
   median time. After each round the worker times fresh set-ups and fresh
   `python -m oucausal describe` calls on the smallest model (untraced
   runs), so those samples are spread over the run as well;
3. checks round-1 outputs against the oracles in perfbench/checks.py and
   checks that every round produced byte-identical output.
Everything is written under .perfbench_work/ in the repository and removed
at the end. BLAS runs single-threaded (BLAS_THREADS) in every process.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

sys.path.insert(0, HERE)
import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SUBPROCESS_TIMEOUT = 60

END_TO_END = (("setup_s", "s"), ("startup_s", "s"), ("wall_s", "s"), ("max_op_s", "s"),
              ("peak_rss_mb", "MB"))


class RunError(Exception):
    """The benchmark could not complete a run."""


def _run(cmd, env, timeout=SUBPROCESS_TIMEOUT):
    return subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout)


def probe_commands(workload, seed, model_dir) -> dict:
    """Fresh-interpreter set-up and start-up commands the worker times between rounds."""
    smallest = os.path.join(model_dir, f"{workloads.smallest_model(workload)}.json")
    return {
        "setup": [sys.executable, os.path.join(HERE, "setup_models.py"), workload, str(seed),
                  model_dir],
        "startup": [sys.executable, "-m", "oucausal", "describe", smallest],
    }


def check_startup(ctx, workload, samples) -> list[str]:
    """Every start-up probe must print a correct description of its model."""
    stem = workloads.smallest_model(workload)
    op = {"name": f"startup:describe:{stem}", "check": {"kind": "describe", "model": stem}}
    problems = []
    for sample in samples:
        problems += checks.check_output(ctx, op, sample["code"], sample["out"])
    return problems


def run_worker(plan, work, env, seconds) -> dict:
    plan_path = os.path.join(work, "plan.json")
    result_path = os.path.join(work, "result.json")
    with open(plan_path, "w", encoding="utf-8") as handle:
        json.dump(plan, handle)
    proc = _run([sys.executable, os.path.join(HERE, "worker.py"), plan_path, result_path],
                env, timeout=seconds + 120)
    if proc.returncode != 0:
        raise RunError(f"worker failed:\n{proc.stderr[-2000:]}")
    with open(result_path, encoding="utf-8") as handle:
        return json.load(handle)


def check_outputs(ctx, ops, result) -> tuple[bool, int]:
    """Returns (correct, failing operations); prints every problem to stderr."""
    correct, failing = True, 0
    rounds = result["rounds"]
    for i, op in enumerate(ops):
        first = rounds[0][i]
        problems = checks.check_op(ctx, op, first["code"])
        if any(r[i]["sha"] != first["sha"] or r[i]["code"] != first["code"] for r in rounds):
            problems.append(f"{op['name']}: output differs between rounds of one run")
            correct = False
        if problems:
            failing += 1
            correct = correct and op["fault"]
            tag = "fault" if op["fault"] else "FAIL"
            for line in problems[:5]:
                print(f"# {tag} {line}", file=sys.stderr)
            if first["stderr"]:
                print(f"# {tag} {op['name']} stderr: {first['stderr'].strip()}", file=sys.stderr)
    return correct, failing


def end_to_end_metrics(ops, result) -> dict:
    untraced = [r for r, traced in zip(result["rounds"], result["traced"]) if not traced]
    per_op = [statistics.median(r[i]["s"] for r in untraced) for i in range(len(untraced[0]))]
    for op, seconds in zip(ops, per_op):
        print(f"# op {op['name']} median {seconds:.4f} s", file=sys.stderr)
    print("# rounds " + " ".join(f"{s:.3f}" for s in result["round_s"]) + " s", file=sys.stderr)
    values = {
        "setup_s": statistics.median(p["s"] for p in result["probes"]["setup"]),
        "startup_s": statistics.median(p["s"] for p in result["probes"]["startup"]),
        "wall_s": sum(per_op),
        "max_op_s": max(per_op),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer_metrics(result) -> dict:
    summary = result["trace"]
    if not summary["counts_repeat"]:
        print("# warning: traced rounds counted differently", file=sys.stderr)
    values = dict(summary["counts"])
    values.update(summary["self_s"])
    # Round 0 is untraced and cold (it also writes the outputs), so it is left out.
    walls = {flag: statistics.median(s for i, (s, t) in enumerate(zip(result["round_s"],
                                                                    result["traced"]))
                                     if t == flag and i > 0) for flag in (False, True)}
    values["trace.untraced_wall_s"] = walls[False]
    values["trace.traced_wall_s"] = walls[True]
    values["trace.overhead_s"] = walls[True] - walls[False]
    return {name: {"value": values.get(name, 0.0), "unit": unit}
            for name, unit in tracer.metric_names()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one oucausal benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "oucausal", "cli.py")):
        print(f"perfbench: no oucausal sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=SRC)
    work = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    model_dir, out_dir = os.path.join(work, "models"), os.path.join(work, "out")
    os.makedirs(out_dir)
    try:
        probes = probe_commands(args.workload, args.seed, model_dir)
        # Untimed first set-up: writes the model files and warms the caches.
        proc = _run(probes["setup"], env)
        if proc.returncode != 0:
            raise RunError(f"set-up failed:\n{proc.stderr}")
        ops = workloads.operations(args.workload, args.seed, model_dir, out_dir)
        ctx = checks.Context(model_dir, out_dir, ops)
        plan = {"ops": ops, "seconds": args.seconds, "out_dir": out_dir,
                "trace": bool(args.trace), "probes": {} if args.trace else probes}
        result = run_worker(plan, work, env, args.seconds)
        correct, failing = check_outputs(ctx, ops, result)
        startup_problems = check_startup(ctx, args.workload,
                                         result["probes"].get("startup", []))
        for line in startup_problems:
            print(f"# FAIL {line}", file=sys.stderr)
        correct = correct and not startup_problems
    except (RunError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):      # other runs may still use it
            os.rmdir(os.path.dirname(work))

    n_rounds = len(result["rounds"])
    metrics = (per_layer_metrics(result) if args.trace
               else end_to_end_metrics(ops, result))
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} rounds={n_rounds} ops_per_round={len(ops)} "
          f"blas_threads={BLAS_THREADS} nproc={os.cpu_count()} "
          f"python={sys.version.split()[0]}")
    for name, metric in metrics.items():
        print(f"# {name} = {metric['value']!r} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": len(ops) * n_rounds,
                      "failed": failing * n_rounds, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
