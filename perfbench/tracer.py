"""Per-module spans and counts, recorded by wrappers around public functions.

`Tracer.installed(package)` replaces each traced function by a wrapper in
every `oucausal` module that holds a reference to it (a name imported with
`from .x import f` is a separate binding), and restores the originals on
exit. A function that does not exist is skipped and its metrics read 0.

A span's self time is its duration minus the time covered by its child
spans. Counts are summed per traced round; self times are kept per round so
the caller can take their median.
"""

from __future__ import annotations

import contextlib
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

# (module, function, metric prefix)
TRACED = (
    ("matkit", "solve_linear", "matkit.solve_linear"),
    ("matkit", "cholesky", "matkit.cholesky"),
    ("matkit", "rank", "matkit.rank"),
    ("matkit", "expm", "matkit.expm"),
    ("stability", "classify", "stability.classify"),
    ("stability", "spectral_abscissa", "stability.spectral_abscissa"),
    ("stability", "is_stable", "stability.is_stable"),
    ("stability", "lyapunov_unit_solution", "stability.lyapunov_unit_solution"),
    ("stability", "screen_principal_submatrices", "stability.screen_principal_submatrices"),
    ("stationary", "stationary_exists", "stationary.stationary_exists"),
    ("stationary", "stationary_distribution", "stationary.stationary_distribution"),
    ("stationary", "controllability_rank", "stationary.controllability_rank"),
    ("models", "intervene_seq", "models.intervene_seq"),
    ("models", "dependence_graph", "models.dependence_graph"),
    ("modelfile", "load_model_file", "modelfile.load_model_file"),
    ("simulate", "simulate_paths", "simulate.simulate_paths"),
    ("simulate", "coupled_intervention_diff", "simulate.coupled_intervention_diff"),
    ("simulate", "exact_transition", "simulate.exact_transition"),
    ("simulate", "path_stats", "simulate.path_stats"),
    ("simulate", "_normals_from_origins", "simulate.rng"),
    ("cli", "main", "cli.main"),
    ("cli", "_paths_csv", "cli.emit"),
    ("cli", "_stats_json", "cli.emit"),
)

COUNT_METRICS = (
    "matkit.solve_linear.max_n",
    "matkit.solve_linear.flops",
    "stability.bisection_steps",
    "stability.is_stable.calls_outside_bisection",
    "stability.screen.classify_per_entry",
    "simulate.rng.normals",
    "simulate.path_steps",
    "simulate.euler_passes_per_coupled",
    "simulate.values_mb",
    "cli.output_mb",
)


def metric_names() -> list[tuple[str, str]]:
    """Every per-module metric this tracer reports, with its unit."""
    names, seen = [], set()
    for _, _, prefix in TRACED:
        if prefix not in seen:
            seen.add(prefix)
            names += [(f"{prefix}.calls", "count"), (f"{prefix}.self_s", "s")]
    units = {"matkit.solve_linear.flops": "flop", "simulate.values_mb": "MB",
             "cli.output_mb": "MB"}
    names += [(n, units.get(n, "count")) for n in COUNT_METRICS]
    names += [("trace.untraced_wall_s", "s"), ("trace.traced_wall_s", "s"),
              ("trace.overhead_s", "s")]
    return names


class Tracer:
    def __init__(self):
        self._stack: list[list] = []      # [prefix, child seconds]
        self._tags: tuple = ()
        self._round_counts = defaultdict(int)
        self._round_self = defaultdict(float)
        self._op_values_bytes = 0
        self.counts: list[dict] = []       # one dict per traced round
        self.self_s: list[dict] = []

    # -- span recording -------------------------------------------------
    def _active(self, prefix: str) -> bool:
        return any(frame[0] == prefix for frame in self._stack)

    def _wrap(self, prefix: str, fn):
        hook = _HOOKS.get(prefix)

        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(self, "before", args, kwargs, None)
            frame = [prefix, 0.0]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._stack.pop()
                self._round_counts[f"{prefix}.calls"] += 1
                self._round_self[f"{prefix}.self_s"] += dt - frame[1]
                if self._stack:
                    self._stack[-1][1] += dt
            if hook is not None:
                hook(self, "after", args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def installed(self, package):
        """Swap every reference to a traced function inside `package`."""
        mods = [m for name, m in sys.modules.items()
                if m is not None and (name == package.__name__
                                      or name.startswith(package.__name__ + "."))]
        swaps = []
        for mod_name, fn_name, prefix in TRACED:
            home = sys.modules.get(f"{package.__name__}.{mod_name}")
            original = getattr(home, fn_name, None) if home is not None else None
            if original is None:
                continue
            wrapper = self._wrap(prefix, original)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        swaps.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        try:
            yield
        finally:
            for mod, attr, original in reversed(swaps):
                setattr(mod, attr, original)

    # -- operation and round boundaries ---------------------------------
    def begin_op(self, tags):
        self._tags = tuple(tags)
        self._op_values_bytes = 0

    def end_op(self, output_bytes: int):
        c = self._round_counts
        c["cli.output_bytes"] += output_bytes
        c["values_bytes_max"] = max(c["values_bytes_max"], self._op_values_bytes)
        if "coupled_csv" in self._tags:
            c["coupled_csv_ops"] += 1
        self._tags = ()

    def end_round(self):
        c = self._round_counts
        derived = {
            "matkit.solve_linear.max_n": c["solve_n_max"],
            "matkit.solve_linear.flops": c["solve_flops"],
            "stability.bisection_steps": _ratio(c["is_stable_in_bisection"],
                                                c["stability.spectral_abscissa.calls"]),
            "stability.is_stable.calls_outside_bisection": c["is_stable_outside_bisection"],
            "stability.screen.classify_per_entry": _ratio(c["classify_in_screen"],
                                                          c["screen_entries"]),
            "simulate.rng.normals": c["rng_normals"],
            "simulate.path_steps": c["path_steps"],
            "simulate.euler_passes_per_coupled": _ratio(c["coupled_csv_euler_passes"],
                                                        c["coupled_csv_ops"]),
            "simulate.values_mb": c["values_bytes_max"] / 1e6,
            "cli.output_mb": c["cli.output_bytes"] / 1e6,
        }
        counts = {name: c[name] for name, unit in metric_names() if name.endswith(".calls")}
        counts.update(derived)
        self.counts.append(counts)
        self.self_s.append(dict(self._round_self))
        self._round_counts = defaultdict(int)
        self._round_self = defaultdict(float)

    def summary(self) -> dict:
        """Counts of the first traced round, the median self times, and
        whether every traced round counted the same."""
        keys = {name for name, unit in metric_names() if name.endswith(".self_s")}
        return {
            "counts": self.counts[0],
            "counts_repeat": all(c == self.counts[0] for c in self.counts),
            "self_s": {k: statistics.median(r.get(k, 0.0) for r in self.self_s) for k in keys},
        }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# -- counting hooks, keyed by metric prefix ------------------------------
def _solve_linear(tr, when, args, kwargs, result):
    if when != "before":
        return
    m = args[0] if args else kwargs["m"]
    rhs = args[1] if len(args) > 1 else kwargs["rhs"]
    n = int(np.shape(m)[0])
    k = 1 if np.ndim(rhs) == 1 else int(np.shape(rhs)[1])
    tr._round_counts["solve_n_max"] = max(tr._round_counts["solve_n_max"], n)
    tr._round_counts["solve_flops"] += 2.0 * n**3 / 3.0 + 2.0 * n * n * k


def _is_stable(tr, when, args, kwargs, result):
    if when == "before":
        key = ("is_stable_in_bisection" if tr._active("stability.spectral_abscissa")
               else "is_stable_outside_bisection")
        tr._round_counts[key] += 1


def _classify(tr, when, args, kwargs, result):
    if when == "before" and tr._active("stability.screen_principal_submatrices"):
        tr._round_counts["classify_in_screen"] += 1


def _screen(tr, when, args, kwargs, result):
    if when == "after":
        tr._round_counts["screen_entries"] += len(result.entries)


def _normals(tr, when, args, kwargs, result):
    if when == "after":
        tr._round_counts["rng_normals"] += result.size


def _paths(tr, when, args, kwargs, result):
    if when == "after":
        n_paths, n_times = result.values.shape[:2]
        tr._round_counts["path_steps"] += n_paths * (n_times - 1)
        tr._op_values_bytes += result.values.nbytes
        method = args[4] if len(args) > 4 else kwargs.get("method", "exact")
        if "coupled_csv" in tr._tags and method == "euler":
            tr._round_counts["coupled_csv_euler_passes"] += 1


def _coupled(tr, when, args, kwargs, result):
    if when == "after":
        n_paths, n_times = result.values.shape[:2]
        tr._round_counts["path_steps"] += n_paths * (n_times - 1)
        tr._op_values_bytes += result.values.nbytes
        if "coupled_csv" in tr._tags:
            tr._round_counts["coupled_csv_euler_passes"] += 1


_HOOKS = {
    "matkit.solve_linear": _solve_linear,
    "stability.is_stable": _is_stable,
    "stability.classify": _classify,
    "stability.screen_principal_submatrices": _screen,
    "simulate.rng": _normals,
    "simulate.simulate_paths": _paths,
    "simulate.coupled_intervention_diff": _coupled,
}
