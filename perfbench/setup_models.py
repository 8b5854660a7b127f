"""One timed set-up: import oucausal, generate and write the workload's model files.

Usage: python3 perfbench/setup_models.py WORKLOAD SEED MODEL_DIR

Prints the seconds from before the import to after the last file is
written and re-read through the program's own parser, which validates it.
Run in a fresh interpreter so the import is paid each time.
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from oucausal.modelfile import load_model_file  # noqa: E402

import workloads  # noqa: E402


def main(workload: str, seed: str, model_dir: str) -> int:
    for path in workloads.write_models(workload, int(seed), model_dir).values():
        load_model_file(path)
    print(repr(time.perf_counter() - T0))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(*sys.argv[1:4]))
