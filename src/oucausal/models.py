"""Ornstein-Uhlenbeck models, the coordinate-pinning intervention calculus,
and dependence-graph extraction.

A model is the SDE dX = B (X - A) dt + sigma dW with state dimension p and
d-dimensional driving Brownian motion. Pinning coordinate m to the constant
c substitutes c for X^m in the drift of every other coordinate and deletes
the m'th equation, which yields the (p-1)-dimensional model with

    mean reversion speed  B~      (B with row and column m deleted)
    diffusion             sigma~  (sigma with row m deleted)
    mean reversion level  A~ = alpha - B~^{-1} beta,

where alpha is A without coordinate m and beta_i = b_im (c - a_m) for
i != m. A sequence of pinnings names its coordinates in the original
model and is applied left to right, each stage pinning one coordinate of
the model the previous stage left. An InterventionRecord tells which
original coordinates were pinned, to which constants, and which survive.
Coordinate indices are 1-based on every user-facing surface.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from . import matkit
from .errors import (
    BadCoordinateError,
    DimensionError,
    DuplicateInterventionError,
    NonFiniteError,
    SingularMatrixError,
    SingularReducedMatrixError,
)


def default_labels(p: int) -> tuple[str, ...]:
    return tuple(f"X{i}" for i in range(1, p + 1))


def _check_positive_int(value, name: str, error: type = DimensionError) -> None:
    """Raise `error` unless value is an int (not a bool) of at least 1."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise error(f"{name} must be a positive integer, got {value!r}")


def _check_coordinate(m: int, p: int, prefix: str = "") -> None:
    """Raise BadCoordinateError unless 1 <= m <= p."""
    if not 1 <= m <= p:
        raise BadCoordinateError(f"{prefix}coordinate {m} outside 1..{p}")


@dataclass(frozen=True, eq=False)
class OuModel:
    """Validated Ornstein-Uhlenbeck model (x0, A, B, sigma) with labels.

    Fields
    ------
    p, d : state and noise dimensions (both >= 1)
    x0   : initial value, length p
    A    : mean reversion level, length p
    B    : mean reversion speed, p x p
    sigma: diffusion matrix, p x d
    labels: p distinct coordinate names, default "X1".."Xp"
    """

    p: int
    d: int
    x0: np.ndarray
    A: np.ndarray
    B: np.ndarray
    sigma: np.ndarray
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        _check_positive_int(self.p, "p")
        _check_positive_int(self.d, "d")
        object.__setattr__(self, "x0", matkit.as_vector(self.x0, self.p, "x0"))
        object.__setattr__(self, "A", matkit.as_vector(self.A, self.p, "A"))
        object.__setattr__(self, "B", matkit.as_matrix(self.B, self.p, self.p, "B"))
        object.__setattr__(
            self, "sigma", matkit.as_matrix(self.sigma, self.p, self.d, "sigma")
        )
        labels = tuple(self.labels) if self.labels else default_labels(self.p)
        if len(labels) != self.p:
            raise DimensionError(f"labels: expected {self.p} names, got {len(labels)}")
        if len(set(labels)) != self.p:
            raise DimensionError("labels must be distinct")
        object.__setattr__(self, "labels", labels)

    def drift(self, x: np.ndarray) -> np.ndarray:
        """Drift B (x - A) at state x."""
        return self.B @ (np.asarray(x, dtype=float) - self.A)


@dataclass(frozen=True)
class Intervention:
    """Pin coordinate m (1-based) to the constant value c."""

    m: int
    c: float

    def __post_init__(self):
        _check_positive_int(self.m, "m", BadCoordinateError)
        c = float(self.c)
        if not np.isfinite(c):
            raise NonFiniteError(f"intervention value must be finite, got {c!r}")
        object.__setattr__(self, "c", c)


@dataclass(frozen=True)
class InterventionRecord:
    """Where the coordinates of a pinned model came from.

    `surviving` lists the original 1-based indices still present, in order;
    `fixed` lists (label, value) pairs in the order they were pinned.
    """

    original_labels: tuple[str, ...]
    fixed: tuple[tuple[str, float], ...] = ()
    surviving: tuple[int, ...] = ()

    def lift(self, reduced: np.ndarray) -> np.ndarray:
        """Embed reduced states back into the original coordinates.

        The last axis of `reduced` must have length len(surviving); pinned
        coordinates are filled with their constant values.
        """
        reduced = np.asarray(reduced, dtype=float)
        p = len(self.original_labels)
        if reduced.shape[-1] != len(self.surviving):
            raise DimensionError(
                f"expected last axis {len(self.surviving)}, got {reduced.shape[-1]}"
            )
        out = np.empty(reduced.shape[:-1] + (p,), dtype=float)
        for k, orig in enumerate(self.surviving):
            out[..., orig - 1] = reduced[..., k]
        for label, value in self.fixed:
            out[..., self.original_labels.index(label)] = value
        return out

    def as_dict(self) -> dict:
        return {
            "original_labels": list(self.original_labels),
            "fixed": [{"label": lab, "value": val} for lab, val in self.fixed],
            "surviving_labels": [
                self.original_labels[i - 1] for i in self.surviving
            ],
        }


def _pins(labels: tuple[str, ...], ivs: Iterable[Intervention]):
    """Walk a pin sequence given in original 1-based coordinates.

    Stage k yields the current 1-based index of its coordinate, i.e. its
    position once stages 1..k-1 are pinned, and the record after stage k.
    Raises BadCoordinateError naming the stage for an index outside 1..p
    and DuplicateInterventionError for a coordinate pinned twice.
    """
    surviving = tuple(range(1, len(labels) + 1))
    fixed = ()
    for stage, iv in enumerate(ivs, start=1):
        _check_coordinate(iv.m, len(labels), f"stage {stage}: ")
        if iv.m not in surviving:
            raise DuplicateInterventionError(
                f"coordinate {labels[iv.m - 1]!r} was already pinned"
            )
        m_now = surviving.index(iv.m) + 1
        fixed += ((labels[iv.m - 1], iv.c),)
        surviving = surviving[:m_now - 1] + surviving[m_now:]
        yield m_now, InterventionRecord(labels, fixed, surviving)


def _reduce_once(model: OuModel, m: int, c: float) -> OuModel:
    """Pin the coordinate at current 1-based index m of the model to c."""
    if model.p < 2:
        raise DimensionError("cannot pin a coordinate of a 1-dimensional model")
    _check_coordinate(m, model.p)
    keep = [i for i in range(model.p) if i != m - 1]
    b_red = model.B[np.ix_(keep, keep)]
    alpha = model.A[keep]
    beta = model.B[keep, m - 1] * (c - model.A[m - 1])
    try:
        correction = matkit.solve_linear(b_red, beta)
    except SingularMatrixError as exc:
        raise SingularReducedMatrixError(
            f"reduced mean-reversion block is singular after pinning "
            f"coordinate {model.labels[m - 1]!r}: {exc}"
        )
    return OuModel(
        p=model.p - 1,
        d=model.d,
        x0=model.x0[keep],
        A=alpha - correction,
        B=b_red,
        sigma=model.sigma[keep, :],
        labels=tuple(model.labels[i] for i in keep),
    )


def intervene_ou(model: OuModel, iv: Intervention) -> tuple[OuModel, InterventionRecord]:
    """Pin one coordinate of an OU model; returns the reduced model and record.

    Raises SingularReducedMatrixError when the reduced mean-reversion block
    is not invertible and BadCoordinateError when iv.m is out of range.
    """
    reduced = _reduce_once(model, iv.m, iv.c)
    [(_, record)] = _pins(model.labels, [iv])
    return reduced, record


def intervene_seq(
    model: OuModel, ivs: Iterable[Intervention]
) -> tuple[OuModel, InterventionRecord]:
    """Left-to-right fold of single pinnings.

    Indices are interpreted against the ORIGINAL coordinates, so "pin X3
    then X1" keeps its meaning after the first reduction. An index outside
    1..p raises BadCoordinateError naming its 1-based stage, pinning the
    same original coordinate twice raises DuplicateInterventionError, and a
    singular reduced block raises SingularReducedMatrixError carrying the
    stage.
    """
    current = model
    record = InterventionRecord(model.labels, (), tuple(range(1, model.p + 1)))
    for stage, (m_now, record) in enumerate(_pins(model.labels, ivs), start=1):
        try:
            current = _reduce_once(current, m_now, record.fixed[-1][1])
        except SingularReducedMatrixError as exc:
            raise SingularReducedMatrixError(f"stage {stage}: {exc}", stage=stage)
    return current, record


@dataclass(frozen=True)
class DependenceGraph:
    """Directed dependence graph: edge u -> v means u's level enters v's drift."""

    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]

    def to_dot(self) -> str:
        """DOT rendering; node order and edge order are deterministic."""
        lines = ["digraph G {"]
        for node in self.nodes:
            lines.append(f'  "{node}";')
        for src, dst in self.edges:
            lines.append(f'  "{src}" -> "{dst}";')
        lines.append("}")
        return "\n".join(lines) + "\n"


def dependence_graph(model: OuModel, tol: float = 0.0) -> DependenceGraph:
    """Graph on the model's p coordinates from the sparsity of B.

    Edge j -> i (including self-loops) iff |b_ij| > tol. The default tol of 0
    reads exact structural zeros, so the graph reflects model structure
    rather than numerics. Edges are listed row-major in B.
    """
    if not tol >= 0:  # also rejects NaN
        raise DimensionError("tol must be nonnegative")
    edges = []
    for i in range(model.p):
        for j in range(model.p):
            if abs(model.B[i, j]) > tol:
                edges.append((model.labels[j], model.labels[i]))
    return DependenceGraph(model.labels, tuple(edges))


def intervened_dependence_graph(
    model: OuModel, ivs: Intervention | Iterable[Intervention], tol: float = 0.0
) -> DependenceGraph:
    """Graph of the pinned process on all p original coordinates.

    A pinned node keeps its outgoing edges (its constant level still enters
    the drift of other coordinates) but loses its incoming edges and its
    self-loop. The graph of the reduced (p-1)-dimensional model itself is
    `dependence_graph(reduced)`; this view keeps the pinned nodes visible.
    The pins are checked as in `intervene_seq`; nothing is solved.
    """
    if isinstance(ivs, Intervention):
        ivs = [ivs]
    pinned = {record.fixed[-1][0] for _, record in _pins(model.labels, ivs)}
    graph = dependence_graph(model, tol)
    return DependenceGraph(graph.nodes, tuple(e for e in graph.edges if e[1] not in pinned))


@dataclass(frozen=True, eq=False)
class GeneralSde:
    """SDE dX = a(X-) dZ with a caller-supplied coefficient function.

    The driver Z has d components; for simulation Z is specialized to
    (t, W), i.e. the first component is time and the remaining d-1 are
    independent Brownian motions. The coefficient is given in either form:

    coef       : a state vector of length p -> a p x d matrix;
    batch_coef : an (n, p) stack of states -> an (n, p, d) stack of
                 coefficients, row i of the input giving slice i.

    Give one or both. A `coef` alone is wrapped into a `batch_coef` that
    calls it once per row; a `batch_coef` alone yields `coef` as its stack
    of one. The Euler simulator calls `batch_coef` once per step on all
    paths through `coefs_at`, the one place a stack is checked: its shape
    (DimensionError, also for ragged or non-numeric rows) and finiteness
    (NonFiniteError). The coefficient must be total on R^p and Lipschitz;
    neither is checked. The callables are invoked from the thread that owns
    the object.
    """

    p: int
    d: int
    x0: np.ndarray
    coef: Callable[[np.ndarray], np.ndarray] | None = field(default=None, repr=False)
    batch_coef: Callable[[np.ndarray], np.ndarray] | None = field(default=None, repr=False)

    def __post_init__(self):
        _check_positive_int(self.p, "p")
        _check_positive_int(self.d, "d")
        object.__setattr__(self, "x0", matkit.as_vector(self.x0, self.p, "x0"))
        coef, batch = self.coef, self.batch_coef
        if not callable(coef if batch is None else batch):
            raise DimensionError("coef must be callable")
        if batch is None:
            object.__setattr__(self, "batch_coef", lambda x: [coef(row) for row in x])
        elif coef is None:
            object.__setattr__(self, "coef", lambda x: batch(np.asarray(x, dtype=float)[None])[0])

    def coefs_at(self, x: np.ndarray) -> np.ndarray:
        """Evaluate the coefficient at the n rows of x and validate the
        (n, p, d) stack it returns."""
        x = np.asarray(x, dtype=float)
        raw = self.batch_coef(x)
        try:
            a = np.asarray(raw, dtype=float)
        except (TypeError, ValueError) as exc:
            raise DimensionError(f"coef(x): not a rectangular numeric array ({exc})")
        shape = (x.shape[0], self.p, self.d)
        if a.shape != shape:
            raise DimensionError(f"coef(x): expected shape {shape}, got {a.shape}")
        if not np.isfinite(a).all():
            raise NonFiniteError("coef(x): contains non-finite entries")
        return a

    def coef_at(self, x: np.ndarray) -> np.ndarray:
        """Evaluate the coefficient at one state and validate its shape."""
        return self.coefs_at(np.asarray(x, dtype=float)[None])[0]


def ou_as_general(model: OuModel) -> GeneralSde:
    """View an OU model as a general SDE driven by Z = (t, W).

    The coefficient is the p x (1 + d) matrix [B (x - A) | sigma]: column 1
    multiplies dt, the remaining columns multiply dW.
    """

    def batch(x: np.ndarray) -> np.ndarray:
        out = np.empty((x.shape[0], model.p, 1 + model.d))
        out[:, :, :1] = model.B @ (x - model.A)[:, :, None]
        out[:, :, 1:] = model.sigma
        return out

    return GeneralSde(model.p, 1 + model.d, model.x0, batch_coef=batch)


def intervene_general(sde: GeneralSde, iv: Intervention) -> GeneralSde:
    """Pin coordinate m of a general SDE to the constant c.

    The reduced coefficient evaluates the original one through its
    `coefs_at`, which checks it, with c inserted at position m, and drops
    row m; the initial value drops coordinate m.
    """
    if sde.p < 2:
        raise DimensionError("cannot pin a coordinate of a 1-dimensional SDE")
    _check_coordinate(iv.m, sde.p)
    m, c = iv.m, iv.c
    keep = np.array([i for i in range(sde.p) if i != m - 1])

    def batch(y: np.ndarray) -> np.ndarray:
        x = np.empty((y.shape[0], sde.p))
        x[:, keep] = y
        x[:, m - 1] = c
        return sde.coefs_at(x)[:, keep, :]

    return GeneralSde(sde.p - 1, sde.d, sde.x0[keep], batch_coef=batch)
