"""Command-line interface.

Subcommands: describe, intervene, stationary, stability, graph, simulate.
Reports are JSON, bulk path data is CSV, graphs can be emitted as DOT.
Commands read one model file and write one result to stdout (or --output);
nothing is written on error. Exit codes: 0 success, 2 parse/usage errors
or an --output file that cannot be written, 3 dimension or finiteness
errors, 4 singular reduced block or duplicate intervention, 5 simulated
paths overflow (the model diverges over the horizon), 1 other failures,
including stdout closed by its reader (broken pipe, no message) and any
other stdout write failure, such as a full disk, which prints
`error: cannot write output: ...`.
`main` may be called repeatedly in one process: it builds its parser once
and looks each command's handler up by name. Only `simulate` imports the
simulator (`oucausal.simulate`), when it runs; the other commands never
load it.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys

import numpy as np

from . import stability as stab
from . import stationary as stat
from .errors import (
    BadCoordinateError,
    DimensionError,
    DuplicateInterventionError,
    ModelFileError,
    NonFiniteError,
    OuCausalError,
    SimulationOverflowError,
    SingularReducedMatrixError,
)
from .modelfile import dumps_model, load_model_file, resolve_coordinate
from .models import Intervention, OuModel, dependence_graph, intervene_seq

# (error classes, exit code); the first row that matches an error wins.
_EXIT_CODES = (
    (ModelFileError, 2),
    ((DimensionError, NonFiniteError), 3),
    ((SingularReducedMatrixError, DuplicateInterventionError, BadCoordinateError), 4),
    (SimulationOverflowError, 5),
    ((OuCausalError, MemoryError), 1),
)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} must be >= 1")
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number")
    if not 0 < value < np.inf:
        raise argparse.ArgumentTypeError(f"{text!r} must be positive and finite")
    return value


def _parse_set_flags(model: OuModel, pairs: list[str]) -> list[Intervention]:
    out = []
    for pair in pairs:
        token, sep, value = pair.partition("=")
        if not sep:
            raise ModelFileError(f"--set expects label=value, got {pair!r}")
        try:
            c = float(value)
        except ValueError:
            raise ModelFileError(f"--set value {value!r} is not a number")
        out.append(Intervention(resolve_coordinate(model.labels, token), c))
    return out


def _load_reduced(args) -> OuModel:
    """Load the model file and apply any interventions it lists."""
    model, _ = intervene_seq(*load_model_file(args.model))
    return model


def cmd_describe(args) -> str:
    model = _load_reduced(args)
    report = stab.classify(model.B, tol=args.tol)
    verdict = stat.stationary_exists(model)
    doc = {
        "p": model.p,
        "d": model.d,
        "labels": list(model.labels),
        "stability": {
            "classification": report.classification.value,
            "spectral_abscissa": float(report.spectral_abscissa),
        },
        "controllability_rank": verdict.controllability_rank,
        "sigma_full_column_span": verdict.sigma_full_column_span,
        "stationarity": verdict.verdict.value,
    }
    if verdict.verdict is stat.Verdict.EXISTS:
        if verdict.law is None:
            raise verdict._no_law
        doc["stationary"] = {"mean": verdict.law.mean.tolist(), "cov": verdict.law.cov.tolist()}
    return json.dumps(doc, indent=2) + "\n"


def cmd_intervene(args) -> str:
    model, ivs = load_model_file(args.model)
    ivs = ivs + _parse_set_flags(model, args.set or [])
    reduced, record = intervene_seq(model, ivs)
    return dumps_model(reduced, record)


def cmd_stationary(args) -> str:
    model = _load_reduced(args)
    law = stat.stationary_distribution(model)
    return json.dumps({"mean": law.mean.tolist(), "cov": law.cov.tolist()}, indent=2) + "\n"


def cmd_stability(args) -> str:
    model = _load_reduced(args)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["removed_set", "classification", "abscissa"])
    screen = stab.screen_principal_submatrices(
        model.B, max_size_removed=None if args.submatrices else 0, tol=args.tol)
    for removed, report in screen.entries:
        writer.writerow([
            "{" + ",".join(str(i) for i in sorted(removed)) + "}",
            report.classification.value,
            repr(float(report.spectral_abscissa)),
        ])
    return buffer.getvalue()


def cmd_graph(args) -> str:
    model = _load_reduced(args)
    graph = dependence_graph(model, tol=args.tol)
    if args.dot:
        return graph.to_dot()
    doc = {
        "nodes": list(graph.nodes),
        "edges": [[src, dst] for src, dst in graph.edges],
    }
    return json.dumps(doc, indent=2) + "\n"


def _paths_csv(header: list[str], grid_t: np.ndarray, columns: np.ndarray) -> list[str]:
    """CSV rows `path,t,<columns>` for every path and grid time, each value
    written as its shortest round-trip repr, as the header chunk and one
    chunk per path. Paths are formatted one at a time and each path's rows
    are joined at once, so only one path's cell and row strings are alive
    at a time. `main` writes the chunks in order, so the CSV is held once."""
    head = io.StringIO()
    csv.writer(head, lineterminator="\n").writerow(header)  # quotes odd labels
    width = columns.shape[2]
    times = [repr(t) + "," for t in grid_t.tolist()]
    chunks = [head.getvalue()]
    for i, path in enumerate(columns):
        prefix = f"{i},"
        cells = map(repr, path.reshape(-1).tolist())
        rows = map(",".join, zip(*[cells] * width))  # `width` cells per row
        chunks.append("".join([prefix + t + row + "\n" for t, row in zip(times, rows)]))
    return chunks


def cmd_simulate(args) -> str | list[str]:
    from . import simulate
    if args.coupled and args.method == "exact":
        raise ModelFileError("--coupled steps by Euler only; --method exact does not apply")
    if args.coupled:
        model, file_ivs = load_model_file(args.model)
        if len(file_ivs) != 1:
            raise ModelFileError(
                "--coupled needs exactly one intervention in the model file's "
                f"'interventions' list, found {len(file_ivs)}"
            )
        iv = file_ivs[0]
    else:
        model, iv = _load_reduced(args), None
    grid = simulate.uniform_grid(args.t, args.steps)
    result = simulate.run(model, grid, args.paths, args.seed, args.method or "exact", iv,
                          args.stats_only)
    if args.stats_only:
        return _stats_json(grid, model.labels, args.paths, result)
    header = ["path", "t", *model.labels]
    if args.coupled:
        header += [f"D{i}" for i in range(1, model.p + 1)]
    return _paths_csv(header, grid.t, result)


def _stats_json(grid, labels, n_paths: int, stats) -> str:
    doc = {
        "at": float(grid.t[-1]),
        "n_paths": n_paths,
        "labels": list(labels),
        "mean": stats.mean.tolist(),
        "cov": stats.cov.tolist(),
        "se_mean": stats.se_mean.tolist(),
    }
    return json.dumps(doc, indent=2) + "\n"


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one shared parser of this process, built on first use; callers
    must not mutate it. It holds no handlers: `main` finds `cmd_<command>`."""
    parser = argparse.ArgumentParser(
        prog="oucausal",
        description="Analyze and simulate interventions in Ornstein-Uhlenbeck SDE models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("model", help="path to a JSON model file")
        p.add_argument("-o", "--output", help="write the result to this file")
        return p

    p = add("describe", "dimensions, stability, controllability, stationary law")
    p.add_argument("--tol", type=_positive_float, default=stab.DEFAULT_TOL,
                   help="spectral abscissa tolerance (default 1e-9)")

    p = add("intervene", "pin coordinates and emit the reduced model")
    p.add_argument("--set", action="append", metavar="LABEL=VALUE",
                   help="pin a coordinate (label or 1-based index); repeatable")

    add("stationary", "stationary mean and covariance as JSON")

    p = add("stability", "stability classification as CSV")
    p.add_argument("--submatrices", action="store_true",
                   help="also classify every proper principal submatrix")
    p.add_argument("--tol", type=_positive_float, default=stab.DEFAULT_TOL,
                   help="spectral abscissa tolerance (default 1e-9)")

    p = add("graph", "dependence graph as JSON or DOT")
    p.add_argument("--dot", action="store_true", help="emit DOT instead of JSON")
    p.add_argument("--tol", type=float, default=0.0,
                   help="edge threshold on |b_ij| (default 0: structural zeros)")

    p = add("simulate", "simulate paths as CSV or summary JSON")
    p.add_argument("--t", type=_positive_float, default=1.0,
                   help="final time (default 1.0)")
    p.add_argument("--steps", type=_positive_int, default=100,
                   help="number of uniform steps (default 100)")
    p.add_argument("--paths", type=_positive_int, default=1000,
                   help="number of paths (default 1000)")
    p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    p.add_argument("--method", choices=("exact", "euler"),
                   help="transition sampling method (default exact; --coupled "
                        "steps by Euler and accepts only euler)")
    p.add_argument("--stats-only", action="store_true",
                   help="emit mean/cov/SE at the final time instead of paths")
    p.add_argument("--coupled", action="store_true",
                   help="simulate Y - X under shared noise for the model file's "
                        "single intervention")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # Looked up at call time, so a handler replaced after the parser was
        # built is the one that runs.
        text = globals()["cmd_" + args.command](args)  # a string, or CSV chunks
    except (OuCausalError, MemoryError) as exc:  # the union of _EXIT_CODES
        code = next(code for kinds, code in _EXIT_CODES if isinstance(exc, kinds))
        prefix = "out of memory: " if isinstance(exc, MemoryError) else ""
        print(f"error: {prefix}{exc}", file=sys.stderr)
        return code
    chunks = [text] if isinstance(text, str) else text
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.writelines(chunks)
        except OSError as exc:
            print(f"error: cannot write output: {exc}", file=sys.stderr)
            return 2
        return 0
    try:
        sys.stdout.writelines(chunks)
        sys.stdout.flush()
    except OSError as exc:
        # A reader that closed the pipe (`| head`) needs no message; any
        # other failure (a full disk) names its error. Only a stream with a
        # real descriptor raises these; pointing it at devnull keeps the
        # interpreter's final flush of what is still buffered silent.
        if not isinstance(exc, BrokenPipeError):
            print(f"error: cannot write output: {exc}", file=sys.stderr)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return 0
