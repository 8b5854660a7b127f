"""Path generation: exact Gaussian transitions for OU models, Euler stepping
for OU and general SDEs, and coupled original-vs-pinned simulation.

Randomness comes from a counter-based generator: per-path streams are
derived by mixing (master seed, path index) through the SplitMix64
finalizer, and each standard normal is produced by Box-Muller from two
fresh 64-bit outputs. Draws are a pure function of (seed, stream, index),
so results do not depend on execution order and are reproducible within a
build. Bit-exact reproduction across platforms is not promised
(transcendental functions differ); within-build determinism is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matkit
from .errors import (
    DimensionError,
    EmptyGridError,
    NonPositiveStepError,
    SimulationOverflowError,
)
from .models import GeneralSde, Intervention, OuModel, intervene_ou

_U64 = np.uint64
_GOLDEN = _U64(0x9E3779B97F4A7C15)
_MIX1 = _U64(0xBF58476D1CE4E5B9)
_MIX2 = _U64(0x94D049BB133111EB)
_TWO_NEG53 = 2.0**-53


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 output function (Stafford mix 13) on uint64 arrays."""
    z = (z ^ (z >> _U64(30))) * _MIX1
    z = (z ^ (z >> _U64(27))) * _MIX2
    return z ^ (z >> _U64(31))


def _stream_origins(seed: int, stream_ids: np.ndarray) -> np.ndarray:
    """Per-stream start states, well spread for distinct (seed, id)."""
    s = _U64(int(seed) & 0xFFFFFFFFFFFFFFFF)
    with np.errstate(over="ignore"):
        return _mix64(s + _GOLDEN * (stream_ids.astype(np.uint64) + _U64(1)))


def _uniforms(origins: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """Open-interval uniforms; element [s, k] is draw counters[k] of stream s."""
    with np.errstate(over="ignore"):
        raw = _mix64(origins[:, None] + _GOLDEN * (counters[None, :] + _U64(1)))
    return ((raw >> _U64(11)).astype(np.float64) + 0.5) * _TWO_NEG53


def _normals_from_origins(origins: np.ndarray, start: int, count: int) -> np.ndarray:
    """(n_streams, count) standard normals, draws start..start+count-1.

    Normal j of a stream consumes raw outputs 2j and 2j+1 (Box-Muller,
    cosine branch), keeping draws a pure function of (stream, j).
    """
    j = np.arange(start, start + count, dtype=np.uint64)
    with np.errstate(over="ignore"):
        u1 = _uniforms(origins, _U64(2) * j)
        u2 = _uniforms(origins, _U64(2) * j + _U64(1))
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


@dataclass(frozen=True)
class RngStream:
    """One reproducible normal stream, identified by (seed, stream).

    Streams with distinct ids are statistically independent; the same
    (seed, stream) reproduces the identical sequence within one build.
    """

    seed: int
    stream: int

    def normals(self, count: int, start: int = 0) -> np.ndarray:
        """Standard normals number start..start+count-1 of this stream."""
        if count < 0 or start < 0:
            raise DimensionError("count and start must be nonnegative")
        origins = _stream_origins(self.seed, np.array([self.stream], dtype=np.uint64))
        return _normals_from_origins(origins, start, count)[0]


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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
    makes the single-shot construction overflow for large t.
    """
    if not t > 0:
        raise NonPositiveStepError("t must be positive")
    p = model.p
    s = model.sigma @ model.sigma.T
    nrm = matkit.norm_one(model.B)
    doublings = 0 if t * nrm <= 1.0 else int(np.ceil(np.log2(t * nrm)))
    h = t / 2.0**doublings
    block = np.zeros((2 * p, 2 * p))
    block[:p, :p] = model.B
    block[:p, p:] = s
    block[p:, p:] = -model.B.T
    e = matkit.expm(h * block)
    f = e[:p, :p]
    q = e[:p, p:] @ f.T
    q = 0.5 * (q + q.T)
    for _ in range(doublings):
        q = f @ q @ f.T + q
        q = 0.5 * (q + q.T)
        f = f @ f
    g = (np.eye(p) - f) @ model.A
    return f, g, q


def _psd_factor(q: np.ndarray) -> np.ndarray:
    """Cholesky-like factor L with L L^T = Q for positive-SEMIdefinite Q.

    Pivots at or below the scale-aware threshold are treated as exactly
    zero (the corresponding column of L is zeroed), so Q = 0 yields L = 0
    and noise-free models stay exactly deterministic.
    """
    q = 0.5 * (q + q.T)
    n = q.shape[0]
    limit = n * 2.0**-52 * (float(np.max(np.abs(q))) if q.size else 0.0)
    low = np.zeros_like(q)
    for j in range(n):
        piv = q[j, j] - low[j, :j] @ low[j, :j]
        if piv <= limit:
            continue
        low[j, j] = np.sqrt(piv)
        if j + 1 < n:
            low[j + 1:, j] = (q[j + 1:, j] - low[j + 1:, :j] @ low[j, :j]) / low[j, j]
    return low


def _validate_run(grid: TimeGrid, n_paths: int) -> None:
    if len(grid) == 0:
        raise EmptyGridError("time grid is empty")
    if n_paths < 1:
        raise DimensionError("n_paths must be >= 1")


def _require_finite(values: np.ndarray, grid: TimeGrid) -> None:
    """Raise SimulationOverflowError, naming the first affected grid time,
    unless every simulated value is finite."""
    if np.all(np.isfinite(values)):
        return
    k = int(np.argmin(np.isfinite(values).all(axis=(0, 2))))
    raise SimulationOverflowError(
        f"simulated paths overflow float64 at t = {grid.t[k]:.6g}; "
        "the model diverges over this horizon"
    )


def _euler_step(x: np.ndarray, level: np.ndarray, speed: np.ndarray,
                dt: float, noise: np.ndarray) -> np.ndarray:
    # Shared by the plain and the coupled simulators so that coordinates
    # with identical dynamics and identical noise reproduce bit-identically.
    return x + ((x - level) @ speed.T) * dt + noise


def simulate_paths(model: OuModel | GeneralSde, grid: TimeGrid, n_paths: int,
                   seed: int, method: str = "exact") -> PathBundle:
    """Simulate n_paths trajectories on the grid.

    method "exact" (OU models only) samples the exact Gaussian transition
    between consecutive grid times, so the law at grid times does not
    depend on the spacing. method "euler" applies the Euler scheme
    X_{k+1} = X_k + B (X_k - A) dt_k + sigma dW_k; for a GeneralSde it
    applies X_{k+1} = X_k + a(X_k) dZ_k with dZ_k = (dt_k, dW_k).

    Path i draws from stream (seed, i), so output is independent of
    execution order.
    """
    _validate_run(grid, n_paths)
    if method not in ("exact", "euler"):
        raise DimensionError(f"method must be 'exact' or 'euler', got {method!r}")
    if isinstance(model, GeneralSde):
        if method != "euler":
            raise DimensionError("the exact method requires an OuModel")
        return _euler_general(model, grid, n_paths, seed)
    if not isinstance(model, OuModel):
        raise DimensionError(f"unsupported model type {type(model).__name__}")

    t = grid.t
    steps = len(t) - 1
    origins = _stream_origins(seed, np.arange(n_paths, dtype=np.uint64))
    values = np.empty((n_paths, steps + 1, model.p))
    x = np.repeat(model.x0[None, :], n_paths, axis=0)
    values[:, 0, :] = x

    # Unstable models can overflow over long horizons; that is reported
    # once, after the loop, instead of as numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        if method == "exact":
            cache: dict[float, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
            for k in range(steps):
                dt = float(t[k + 1] - t[k])
                if dt not in cache:
                    f, g, q = exact_transition(model, dt)
                    cache[dt] = (f, g, _psd_factor(q))
                f, g, low = cache[dt]
                eta = _normals_from_origins(origins, k * model.p, model.p)
                x = x @ f.T + g + eta @ low.T
                values[:, k + 1, :] = x
        else:
            for k in range(steps):
                dt = float(t[k + 1] - t[k])
                dw = _normals_from_origins(origins, k * model.d, model.d) * np.sqrt(dt)
                x = _euler_step(x, model.A, model.B, dt, dw @ model.sigma.T)
                values[:, k + 1, :] = x
    _require_finite(values, grid)
    return PathBundle(grid, values, model.labels)


def _euler_general(sde: GeneralSde, grid: TimeGrid, n_paths: int,
                   seed: int) -> PathBundle:
    """Euler scheme for dX = a(X) dZ with Z = (t, W); a evaluated per path."""
    t = grid.t
    steps = len(t) - 1
    n_brownian = sde.d - 1
    origins = _stream_origins(seed, np.arange(n_paths, dtype=np.uint64))
    values = np.empty((n_paths, steps + 1, sde.p))
    x = np.repeat(sde.x0[None, :], n_paths, axis=0)
    values[:, 0, :] = x
    for k in range(steps):
        dt = float(t[k + 1] - t[k])
        if n_brownian > 0:
            dw = _normals_from_origins(origins, k * n_brownian, n_brownian)
            dw = dw * np.sqrt(dt)
        else:
            dw = np.zeros((n_paths, 0))
        for i in range(n_paths):
            dz = np.concatenate(([dt], dw[i]))
            x[i] = x[i] + sde.coef_at(x[i]) @ dz
        values[:, k + 1, :] = x
    return PathBundle(grid, values, tuple(f"X{i}" for i in range(1, sde.p + 1)))


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
    _validate_run(grid, n_paths)
    reduced, record = intervene_ou(model, iv)
    keep = [i for i in range(model.p) if i != iv.m - 1]
    t = grid.t
    steps = len(t) - 1
    origins = _stream_origins(seed, np.arange(n_paths, dtype=np.uint64))
    diffs = np.empty((n_paths, steps + 1, model.p))
    x = np.repeat(model.x0[None, :], n_paths, axis=0)
    u = x[:, keep].copy()
    diffs[:, 0, :] = record.lift(u) - x
    with np.errstate(over="ignore", invalid="ignore"):  # see simulate_paths
        for k in range(steps):
            dt = float(t[k + 1] - t[k])
            dw = _normals_from_origins(origins, k * model.d, model.d) * np.sqrt(dt)
            noise = dw @ model.sigma.T
            # Slicing the full-model noise keeps the shared-noise coordinates
            # bit-identical between the two recursions.
            x = _euler_step(x, model.A, model.B, dt, noise)
            u = _euler_step(u, reduced.A, reduced.B, dt, noise[:, keep])
            diffs[:, k + 1, :] = record.lift(u) - x
    _require_finite(diffs, grid)
    return PathBundle(grid, diffs, model.labels)


def path_stats(bundle: PathBundle, at: int) -> PathStats:
    """Unbiased cross-path mean and covariance at one grid index.

    Standard errors of the mean are sqrt(diag(cov) / n_paths). Requires at
    least two paths; `at` follows Python indexing (negatives allowed) and
    raises IndexError when out of range.
    """
    if bundle.n_paths < 2:
        raise DimensionError("path statistics require n_paths >= 2")
    n_times = bundle.values.shape[1]
    if not -n_times <= at < n_times:
        raise IndexError(f"time index {at} out of range for {n_times} grid points")
    x = bundle.values[:, at, :]
    mean = x.mean(axis=0)
    centered = x - mean
    cov = centered.T @ centered / (bundle.n_paths - 1)
    se = np.sqrt(np.diag(cov) / bundle.n_paths)
    return PathStats(mean, cov, se)
