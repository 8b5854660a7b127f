"""Path generation: exact Gaussian transitions for OU models, Euler stepping
for OU and general SDEs, and coupled original-vs-pinned simulation.

Randomness comes from one numpy generator per time step, built in one
place, `_step_normals`: every scheme takes the (n_paths, count) normals
of step k from it, row i for path i. Results are reproducible within a
build and numpy version; bit-exact reproduction across platforms is not
promised.

Each scheme (exact OU, Euler OU, Euler for a general SDE, and the coupled
pair) is written once, as a generator that yields the state at each grid
time. Every scheme steps all paths together: the general-SDE Euler step
evaluates the batched coefficient `GeneralSde.batch_coef` once per step,
and the exact sampler computes one transition per distinct step length,
which on a uniform grid (`uniform_grid`, or any `linspace` from 0) is one
transition for the whole run. The coupled recursion yields X and Y - X
side by side, so one pass gives both. `_drive` runs a scheme and checks
every state for overflow as it arrives.

`run` is the one simulation pass: it validates the inputs, picks the
scheme and drives it, then returns either every state or, for
`simulate --stats-only`, the statistics of the final one, holding only the
current state so that memory is O(n_paths * p) whatever the number of
steps. `simulate_paths` and the CLI call it; `coupled_intervention_diff`
drives the coupled scheme itself to store only the Y - X half.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matkit
from .errors import (
    DimensionError,
    EmptyGridError,
    NonFiniteError,
    NonPositiveStepError,
    SimulationOverflowError,
)
from .models import (GeneralSde, Intervention, InterventionRecord, OuModel, default_labels,
                     intervene_ou)

_MASK64 = 2**64 - 1
_STATS_PATHS = "path statistics require n_paths >= 2"


def _step_normals(seed: int, k: int, n_paths: int, count: int) -> np.ndarray:
    """(n_paths, count) standard normals of step k, from PCG64 seeded by the
    SeedSequence of (seed, k) through numpy's ziggurat sampler. Row i is path
    i's draws, so a path's draws are a pure function of (seed, k, i) and do
    not depend on how many paths run beside it."""
    # Reached by attribute access, so importing this module does not import
    # numpy.random (about 13 ms and 6 MB); the first draw does. The CLI
    # imports this module for `simulate` alone.
    random = np.random
    key = random.SeedSequence([int(seed) & _MASK64, int(k) & _MASK64])
    return random.Generator(random.PCG64(key)).standard_normal((n_paths, count))


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Strictly increasing times starting at 0."""

    t: np.ndarray

    def __post_init__(self):
        t = matkit.as_vector(self.t, name="t")
        if t.size == 0:
            raise EmptyGridError("time grid must contain at least t = 0")
        if t[0] != 0.0:
            raise NonPositiveStepError(f"time grid must start at 0, got {t[0]}")
        if t.size > 1 and not np.all(np.diff(t) > 0.0):
            raise NonPositiveStepError("time grid must be strictly increasing")
        object.__setattr__(self, "t", t)

    def __len__(self) -> int:
        return int(self.t.size)


def uniform_grid(t_end: float, steps: int) -> TimeGrid:
    """Uniform grid on [0, t_end] with `steps` intervals."""
    if steps < 1:
        raise NonPositiveStepError("steps must be >= 1")
    if not t_end > 0:
        raise NonPositiveStepError("t_end must be positive")
    return TimeGrid(np.linspace(0.0, float(t_end), steps + 1))


@dataclass(frozen=True, eq=False)
class PathBundle:
    """Simulated paths: values has shape (n_paths, len(grid), p)."""

    grid: TimeGrid
    values: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 3 or v.shape[1] != len(self.grid) or v.shape[2] != len(self.labels):
            raise DimensionError(
                f"values shape {v.shape} inconsistent with grid length "
                f"{len(self.grid)} and {len(self.labels)} labels"
            )
        if not np.all(np.isfinite(v)):
            raise DimensionError("values contain non-finite entries")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def n_paths(self) -> int:
        return int(self.values.shape[0])


@dataclass(frozen=True, eq=False)
class PathStats:
    """Cross-path sample statistics at one grid time."""

    mean: np.ndarray
    cov: np.ndarray
    se_mean: np.ndarray


def exact_transition(model: OuModel, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One-step transition law over time t: X_t | X_0 = x is N(F x + g, Q).

    F = exp(tB) and g = (I - F) A, which equals the integrated drift term
    for every B (no invertibility needed). Q = integral_0^t e^{sB} sigma
    sigma^T e^{sB^T} ds comes from the Van Loan block exponential
    exp(h [[B, sigma sigma^T], [0, -B^T]]) = [[E11, E12], [0, E22]],
    Q(h) = E12 E11^T, evaluated at a sub-time h with |h B| of order one and
    composed up to t by the semigroup identity Q(2h) = F(h) Q(h) F(h)^T +
    Q(h). Composing avoids the e^{t |B|} blow-up of the -B^T block that
    makes the single-shot construction overflow for large t; t must be finite.
    """
    if not t > 0:
        raise NonPositiveStepError("t must be positive")
    if not np.isfinite(t):
        raise NonFiniteError("t must be finite")
    p = model.p
    s = model.sigma @ model.sigma.T
    # ceil(log2(t |B|_1)) from the mantissas and exponents, as t |B|_1 can
    # overflow; so can |B|_1, hence the norm of B / 2^eb with max|B| < 2^eb.
    eb = np.frexp(np.abs(model.B).max())[1]
    nrm = np.linalg.norm(np.ldexp(model.B, -eb), 1)
    (mt, et), (mn, en) = np.frexp(t), np.frexp(nrm)
    doublings = 0 if nrm == 0 else max(0, int(np.ceil(np.log2(mt * mn))) + et + en + eb)
    block = np.zeros((2 * p, 2 * p))
    block[:p, :p] = model.B
    block[:p, p:] = s
    block[p:, p:] = -model.B.T
    e = matkit.expm(np.ldexp(t, -doublings) * block)  # h = t / 2^doublings
    f = e[:p, :p]
    q = e[:p, p:] @ f.T
    q = 0.5 * (q + q.T)
    for _ in range(doublings):
        q = f @ q @ f.T + q
        q = 0.5 * (q + q.T)
        f = f @ f
    g = (np.eye(p) - f) @ model.A
    return f, g, q


def _drive(states, grid: TimeGrid, values: np.ndarray | None = None) -> np.ndarray:
    """Run a stepping generator over the grid and return its final state.

    A stepping generator yields the (n_paths, q) state at each grid time in
    turn. Each state is checked as it is produced, so SimulationOverflowError
    names the first grid time at which a value is non-finite. values[:, k]
    receives the state at grid time k when `values` is given; otherwise only
    the current state is held. Unstable models overflow over long horizons;
    that is reported here instead of as numpy warnings.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        for k, x in enumerate(states):
            if not np.isfinite(x).all():
                raise _overflow(grid.t[k])
            if values is not None:
                values[:, k, :] = x
    return x


def _overflow(t: float) -> SimulationOverflowError:
    return SimulationOverflowError(
        f"simulated paths overflow float64 at t = {t:.6g}; "
        "the model diverges over this horizon"
    )


def _euler_step(x: np.ndarray, level: np.ndarray, speed: np.ndarray,
                dt: float, noise: np.ndarray) -> np.ndarray:
    # Shared by the plain and the coupled simulators so that coordinates
    # with identical dynamics and identical noise reproduce bit-identically.
    return x + ((x - level) @ speed.T) * dt + noise


def _brownian(seed: int, k: int, n_paths: int, d: int, dt: float) -> np.ndarray:
    """Brownian increments over step k: d normals per path, scaled by sqrt(dt)."""
    return _step_normals(seed, k, n_paths, d) * np.sqrt(dt)


def _exact_steps(model: OuModel, t: np.ndarray, n_paths: int, seed: int):
    x = np.repeat(model.x0[None, :], n_paths, axis=0)
    yield x
    # np.diff of a linspace grid holds several values within rounding of
    # its step, so such a grid takes every transition over t_end / steps.
    n_steps = len(t) - 1
    uniform = np.array_equal(t, np.linspace(0.0, t[-1], n_steps + 1))
    cache: dict[float, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
    for k in range(n_steps):
        dt = float(t[-1]) / n_steps if uniform else float(t[k + 1] - t[k])
        if dt not in cache:
            # Pivots at or below the limit count as zero, so a
            # positive-semidefinite Q (even Q = 0) is factored.
            f, g, q = exact_transition(model, dt)
            low = matkit.cholesky_pivots(q)[0]
            cache[dt] = (f, g, low)
        f, g, low = cache[dt]
        eta = _step_normals(seed, k, n_paths, model.p)
        x = x @ f.T + g + eta @ low.T
        yield x


def _euler_steps(model: OuModel, t: np.ndarray, n_paths: int, seed: int):
    x = np.repeat(model.x0[None, :], n_paths, axis=0)
    yield x
    for k in range(len(t) - 1):
        dt = float(t[k + 1] - t[k])
        dw = _brownian(seed, k, n_paths, model.d, dt)
        x = _euler_step(x, model.A, model.B, dt, dw @ model.sigma.T)
        yield x


def _general_steps(sde: GeneralSde, t: np.ndarray, n_paths: int, seed: int):
    """Euler scheme for dX = a(X) dZ with Z = (t, W); a evaluated on all
    paths at once through the batched coefficient.

    A coefficient that is non-finite at x0 raises NonFiniteError. A state or
    a coefficient that turns non-finite later means the paths diverged:
    SimulationOverflowError names the first grid time where either happens.
    """
    n_brownian = sde.d - 1
    x = np.repeat(sde.x0[None, :], n_paths, axis=0)
    yield x
    dz = np.empty((n_paths, sde.d, 1))
    for k in range(len(t) - 1):
        dt = float(t[k + 1] - t[k])
        dz[:, 0, 0] = dt
        if n_brownian > 0:
            dz[:, 1:, 0] = _brownian(seed, k, n_paths, n_brownian, dt)
        try:
            coef = sde.coefs_at(x)
        except NonFiniteError:
            if k == 0:
                raise
            # _drive found every state up to t_k finite.
            raise _overflow(t[k])
        # Each slice is the matrix-vector product of one path, so the
        # stacked step equals stepping the paths one at a time.
        x = x + (coef @ dz)[:, :, 0]
        yield x


def _coupled_steps(model: OuModel, reduced: OuModel, record: InterventionRecord,
                   t: np.ndarray, n_paths: int, seed: int):
    """X and Y - X side by side (see `coupled_intervention_diff`); `reduced`
    and `record` are `intervene_ou(model, iv)`, computed by the caller so
    that a bad intervention is reported before anything is allocated."""
    keep = [i - 1 for i in record.surviving]
    x = np.repeat(model.x0[None, :], n_paths, axis=0)
    u = x[:, keep]
    for k in range(len(t)):
        if k > 0:
            dt = float(t[k] - t[k - 1])
            noise = _brownian(seed, k - 1, n_paths, model.d, dt) @ model.sigma.T
            # Slicing the full-model noise keeps the shared-noise
            # coordinates bit-identical between the two recursions.
            x = _euler_step(x, model.A, model.B, dt, noise)
            u = _euler_step(u, reduced.A, reduced.B, dt, noise[:, keep])
        yield np.hstack((x, record.lift(u) - x))


def run(model: OuModel | GeneralSde, grid: TimeGrid, n_paths: int, seed: int,
        method: str = "exact", iv: Intervention | None = None,
        stats_only: bool = False) -> np.ndarray | PathStats:
    """One simulation pass on the grid.

    Without `iv` this is the run `simulate_paths` describes. With `iv` it
    is the coupled Euler recursion of `coupled_intervention_diff` (method
    is not read), and each state holds X and Y - X side by side. Returns
    the states at every grid time, shape (n_paths, len(grid), p), or 2p
    with `iv`. With `stats_only` it returns instead the `PathStats` of the
    final state (of Y - X for a coupled run), holding only the current
    state, so memory is O(n_paths * p) however long the grid is. Overflow
    is checked at every grid time either way. Every input, the
    intervention included, is validated before the first allocation or
    step.
    """
    if n_paths < 1:
        raise DimensionError("n_paths must be >= 1")
    if iv is not None:
        states = _coupled_steps(model, *intervene_ou(model, iv), grid.t, n_paths, seed)
    elif method not in ("exact", "euler"):
        raise DimensionError(f"method must be 'exact' or 'euler', got {method!r}")
    elif isinstance(model, GeneralSde):
        if method != "euler":
            raise DimensionError("the exact method requires an OuModel")
        states = _general_steps(model, grid.t, n_paths, seed)
    elif not isinstance(model, OuModel):
        raise DimensionError(f"unsupported model type {type(model).__name__}")
    else:
        steps = _exact_steps if method == "exact" else _euler_steps
        states = steps(model, grid.t, n_paths, seed)
    if stats_only:
        if n_paths < 2:
            raise DimensionError(_STATS_PATHS)
        return _sample_stats(_drive(states, grid)[:, -model.p:])
    values = np.empty((n_paths, len(grid), model.p if iv is None else 2 * model.p))
    _drive(states, grid, values)
    return values


def simulate_paths(model: OuModel | GeneralSde, grid: TimeGrid, n_paths: int,
                   seed: int, method: str = "exact") -> PathBundle:
    """Simulate n_paths trajectories on the grid.

    method "exact" (OU models only) samples the exact Gaussian transition
    between consecutive grid times, so the law at grid times does not
    depend on the spacing. method "euler" applies the Euler scheme
    X_{k+1} = X_k + B (X_k - A) dt_k + sigma dW_k; for a GeneralSde it
    applies X_{k+1} = X_k + a(X_k) dZ_k with dZ_k = (dt_k, dW_k).

    Step k draws from `_step_normals(seed, k, ...)` and path i takes row i
    of that step's draws, so a path's draws do not depend on how many paths
    run beside it.
    """
    values = run(model, grid, n_paths, seed, method)
    labels = model.labels if isinstance(model, OuModel) else default_labels(model.p)
    return PathBundle(grid, values, labels)


def coupled_intervention_diff(model: OuModel, iv: Intervention, grid: TimeGrid,
                              n_paths: int, seed: int) -> PathBundle:
    """Difference Y - X under shared Brownian increments.

    X follows the Euler scheme for the model; the pinned process Y is built
    by Euler-stepping the reduced model with the SAME increments and
    re-inserting the constant c at coordinate m. The returned bundle holds
    Y - X on the grid (original labels); coordinate m is c - X^m by
    construction. Rerunning `simulate_paths(model, ..., method="euler")`
    with the same seed reproduces the X component exactly.
    """
    if n_paths < 1:
        raise DimensionError("n_paths must be >= 1")
    states = _coupled_steps(model, *intervene_ou(model, iv), grid.t, n_paths, seed)
    diffs = np.empty((n_paths, len(grid), model.p))
    _drive((s[:, model.p:] for s in states), grid, diffs)
    return PathBundle(grid, diffs, model.labels)


def _sample_stats(x: np.ndarray) -> PathStats:
    """Unbiased mean and covariance across the rows of x (n_paths, p)."""
    n_paths = x.shape[0]
    if n_paths < 2:
        raise DimensionError(_STATS_PATHS)
    mean = x.mean(axis=0)
    centered = x - mean
    # Columns divided by powers of two overflow only if the covariance does.
    e = np.frexp(np.abs(centered).max(axis=0))[1]
    np.ldexp(centered, -e, out=centered)
    with np.errstate(over="ignore"):
        cov = np.ldexp(centered.T @ centered / (n_paths - 1), e[:, None] + e[None, :])
    if not np.isfinite(cov).all():
        raise NonFiniteError("the sample covariance overflows float64")
    se = np.sqrt(np.diag(cov) / n_paths)
    return PathStats(mean, cov, se)


def path_stats(bundle: PathBundle, at: int) -> PathStats:
    """Unbiased cross-path mean and covariance at one grid index.

    Standard errors of the mean are sqrt(diag(cov) / n_paths). Requires at
    least two paths; `at` follows Python indexing (negatives allowed) and
    raises IndexError when out of range.
    """
    n_times = bundle.values.shape[1]
    if not -n_times <= at < n_times:
        raise IndexError(f"time index {at} out of range for {n_times} grid points")
    return _sample_stats(bundle.values[:, at, :])
