"""Run sets of benchmark runs and report whether they agree within the bounds.

Usage (from the repository root):

    python3 perfbench/compare.py --runs 10 --sets 2
    python3 perfbench/compare.py --runs 5 --sets 1 --workloads screening

Each set runs every selected workload `--runs` times, each time with another
seed (set k uses seeds 1000*k + 1 ...), for BENCHMARK.json's run_seconds.
For every end-to-end metric it prints each set's median and spread (the
distance between the first and third quartile, as a share of the median)
and, with two sets, how much the second median is worse than the first.
A metric agrees when every spread except setup_s's is within its bound and
the second median is not worse than the first by more than the bound; the
failed share must be identical in both sets. Exits 1 when anything
disagrees or a run reports `correct: false`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(config, workload, seed) -> dict:
    cmd = config["command"] + ["--workload", workload, "--seed", str(seed),
                               "--seconds", str(config["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=2)
    parser.add_argument("--workloads", help="comma-separated subset of BENCHMARK.json's workloads")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        config = json.load(handle)
    names = [w["name"] for w in config["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    agree = True
    for workload in names:
        sets = []
        for k in range(args.sets):
            results = []
            for i in range(args.runs):
                res = one_run(config, workload, 1000 * k + i + 1)
                results.append(res)
                print(f"{workload} set {k + 1} run {i + 1}: correct={res['correct']} "
                      f"failed={res['failed']}/{res['attempted']} "
                      + " ".join(f"{n}={m['value']:.4g}" for n, m in res["metrics"].items()),
                      flush=True)
                agree = agree and res["correct"]
            sets.append(results)
        shares = {Fraction(r["failed"], r["attempted"]) for results in sets for r in results}
        if len(shares) != 1:
            print(f"{workload}: failed share differs between runs: {sorted(map(str, shares))}")
            agree = False
        for metric in config["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            cols = [[r["metrics"][name]["value"] for r in results] for results in sets]
            medians = [statistics.median(c) for c in cols]
            spreads = [spread(c) for c in cols]
            ok = name == "setup_s" or all(s <= bound for s in spreads)
            line = (f"{workload:10s} {name:12s} bound {bound:.2f} "
                    + " ".join(f"set{k + 1} median {m:.4g} spread {s:.3f}"
                               for k, (m, s) in enumerate(zip(medians, spreads))))
            if len(sets) == 2:
                worse = (medians[1] - medians[0]) / medians[0]
                if metric["better"] == "higher":
                    worse = -worse
                ok = ok and worse <= bound
                line += f" second worse by {worse:+.3f}"
            print(line + ("" if ok else "  DISAGREES"), flush=True)
            agree = agree and ok
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
