import re

import numpy as np
import pytest

from oucausal import (
    GeneralSde,
    Intervention,
    InterventionRecord,
    OuModel,
    PathBundle,
    classify,
    dependence_graph,
    intervene_general,
    intervene_ou,
    intervene_seq,
    intervened_dependence_graph,
    ou_as_general,
    path_stats,
    simulate_paths,
    stationary_distribution,
    stationary_exists,
    uniform_grid,
)
from oucausal.errors import (
    BadCoordinateError,
    DimensionError,
    DuplicateInterventionError,
    NonFiniteError,
    SingularReducedMatrixError,
)
from util import demo_triangular, diag_dominant


# --------------------------------------------------------------- construction

def test_scalar_model_valid():
    m = OuModel(p=1, d=1, x0=[0.0], A=[0.0], B=[[-1.0]], sigma=[[1.0]])
    assert m.labels == ("X1",)


def test_dimension_mismatch_rejected():
    with pytest.raises(DimensionError):
        OuModel(p=2, d=2, x0=[0.0, 0.0], A=[0.0, 0.0],
                B=np.ones((2, 3)), sigma=np.eye(2))


SCALAR = dict(x0=[0.0], A=[0.0], B=[[-1.0]], sigma=[[1.0]])


@pytest.mark.parametrize("build, error, name", [
    (lambda: OuModel(p=True, d=1, **SCALAR), DimensionError, "p"),
    (lambda: OuModel(p=1, d=True, **SCALAR), DimensionError, "d"),
    (lambda: GeneralSde(p=True, d=1, x0=[0.0], coef=lambda x: np.ones((1, 1))),
     DimensionError, "p"),
    (lambda: Intervention(m=True, c=0.0), BadCoordinateError, "m"),
], ids=["OuModel.p", "OuModel.d", "GeneralSde.p", "Intervention.m"])
def test_bool_is_not_a_positive_integer(build, error, name):
    # bool is a subclass of int, and a model with p=True would be written as
    # "p": true, which load_model_file refuses to read back.
    with pytest.raises(error, match=rf"^{name} must be a positive integer, got True$"):
        build()


def test_array_dataclasses_compare_and_hash_by_identity():
    # Field-wise == on array fields raised ValueError, and hash TypeError.
    m = demo_triangular()
    grid = uniform_grid(1.0, 3)
    bundle = simulate_paths(m, grid, 2, 0)
    values = [m, demo_triangular(), ou_as_general(m), grid, uniform_grid(1.0, 3), bundle,
              PathBundle(grid, bundle.values, bundle.labels), path_stats(bundle, -1),
              stationary_distribution(m), stationary_exists(m), classify(-np.eye(2)),
              classify(-np.eye(2))]
    assert len(set(values)) == len(values)
    for i, x in enumerate(values):
        assert [x == y for y in values] == [j == i for j in range(len(values))]


def test_triangular_demo_model_valid():
    m = demo_triangular()
    assert m.p == 3 and m.d == 3
    assert np.all(np.diag(m.B) < 0)
    assert np.all(np.tril(m.B, -1) == 0)


def test_nonfinite_entry_rejected():
    with pytest.raises(NonFiniteError):
        OuModel(p=1, d=1, x0=[np.inf], A=[0.0], B=[[-1.0]], sigma=[[1.0]])


def test_duplicate_labels_rejected():
    with pytest.raises(DimensionError):
        OuModel(p=2, d=1, x0=[0.0, 0.0], A=[0.0, 0.0],
                B=-np.eye(2), sigma=[[1.0], [1.0]], labels=("Y", "Y"))


# ----------------------------------------------------------------- intervene

def test_intervene_diagonal_b_keeps_level():
    # With diagonal B there are no cross terms, so the reduced level is
    # simply A without the pinned coordinate.
    m = OuModel(p=3, d=3, x0=[1.0, 2.0, 3.0], A=[4.0, 5.0, 6.0],
                B=np.diag([-1.0, -2.0, -3.0]), sigma=np.eye(3))
    red, rec = intervene_ou(m, Intervention(2, 9.0))
    assert np.array_equal(red.A, [4.0, 6.0])
    assert np.array_equal(red.B, np.diag([-1.0, -3.0]))
    assert np.array_equal(red.x0, [1.0, 3.0])
    assert red.labels == ("X1", "X3")
    assert rec.fixed == (("X2", 9.0),)


def test_intervene_triangular_matches_block_inverse():
    # Pinning X2 of the triangular model leaves speed [[b11,b13],[0,b33]] and
    # level [a1,a3] - inv([[b11,b13],[0,b33]]) @ [b12 (c - a2), 0], where the
    # inverse is [[1/b11, -b13/(b11 b33)], [0, 1/b33]].
    m = demo_triangular()
    c = 0.7
    red, _ = intervene_ou(m, Intervention(2, c))
    b11, b12, b13 = m.B[0, 0], m.B[0, 1], m.B[0, 2]
    b33 = m.B[2, 2]
    a1, a2, a3 = m.A
    assert np.array_equal(red.B, [[b11, b13], [0.0, b33]])
    inv = np.array([[1.0 / b11, -b13 / (b11 * b33)], [0.0, 1.0 / b33]])
    expect = np.array([a1, a3]) - inv @ np.array([b12 * (c - a2), 0.0])
    assert np.max(np.abs(red.A - expect)) <= 1e-14 * max(1.0, np.max(np.abs(expect)))


def test_intervene_substitution_oracle():
    # The reduced drift must equal the original drift rows (i != m) with the
    # pinned coordinate substituted by c, at arbitrary states.
    rng = np.random.default_rng(100)
    m = OuModel(p=4, d=4, x0=np.zeros(4), A=rng.uniform(-2, 2, 4),
                B=diag_dominant(rng, 4), sigma=np.eye(4))
    red, _ = intervene_ou(m, Intervention(2, 1.0))
    keep = [0, 2, 3]
    for _ in range(100):
        y = rng.uniform(-5.0, 5.0, 3)
        x = np.insert(y, 1, 1.0)
        assert np.max(np.abs(red.drift(y) - m.drift(x)[keep])) <= 1e-12


def test_intervene_sigma_row_removed():
    rng = np.random.default_rng(8)
    sigma = rng.uniform(-1, 1, (3, 2))
    m = OuModel(p=3, d=2, x0=np.zeros(3), A=np.zeros(3),
                B=diag_dominant(rng, 3), sigma=sigma)
    red, _ = intervene_ou(m, Intervention(1, 0.0))
    assert red.d == 2
    assert np.array_equal(red.sigma, sigma[1:, :])


def test_intervene_bad_coordinate():
    m = demo_triangular()
    with pytest.raises(BadCoordinateError, match=r"^stage 1: coordinate 4 outside 1\.\.3$"):
        intervene_ou(m, Intervention(4, 0.0))
    with pytest.raises(BadCoordinateError, match=r"^stage 2: coordinate 4 outside 1\.\.3$"):
        intervene_seq(m, [Intervention(1, 0.0), Intervention(4, 0.0)])
    with pytest.raises(BadCoordinateError, match=r"^stage 1: coordinate 4 outside 1\.\.3$"):
        intervened_dependence_graph(m, Intervention(4, 0.0))


def test_intervene_singular_reduced_block():
    b = np.array([[0.0, 1.0], [1.0, 0.0]])
    m = OuModel(p=2, d=2, x0=np.zeros(2), A=np.zeros(2), B=b, sigma=np.eye(2))
    with pytest.raises(SingularReducedMatrixError, match="^stage 1: ") as info:
        intervene_ou(m, Intervention(1, 2.0))
    assert info.value.stage == 1


PIN_ENTRY_POINTS = {
    "intervene_ou": intervene_ou,
    "intervene_seq": lambda m, iv: intervene_seq(m, [iv]),
    "intervene_general": lambda m, iv: intervene_general(ou_as_general(m), iv),
    "intervened_dependence_graph": intervened_dependence_graph,
}


@pytest.mark.parametrize("entry", PIN_ENTRY_POINTS)
@pytest.mark.parametrize("p, m", [(1, 2), (3, 5), (1, 1)],
                         ids=["X2-of-1d", "X5-of-3d", "X1-of-1d"])
def test_every_pin_entry_point_checks_a_pin_alike(entry, p, m):
    model = OuModel(p=p, d=1, x0=np.zeros(p), A=np.zeros(p), B=-np.eye(p),
                    sigma=np.ones((p, 1)))
    call = lambda: PIN_ENTRY_POINTS[entry](model, Intervention(m, 0.0))
    if m > p:
        with pytest.raises(BadCoordinateError,
                           match=rf"^stage 1: coordinate {m} outside 1\.\.{p}$"):
            call()
    elif entry == "intervened_dependence_graph":
        # Nothing is reduced: the pinned X1 only loses its self-loop.
        assert call().edges == ()
    else:
        with pytest.raises(DimensionError,
                           match=r"^cannot pin a coordinate of a 1-dimensional (model|SDE)$"):
            call()


# -------------------------------------------------------------- intervene_seq

def test_seq_empty_is_identity():
    m = demo_triangular()
    out, rec = intervene_seq(m, [])
    assert np.array_equal(out.B, m.B) and np.array_equal(out.A, m.A)
    assert out.labels == m.labels
    assert rec.fixed == ()


def test_seq_singleton_equals_single():
    m = demo_triangular()
    a, rec_a = intervene_ou(m, Intervention(2, 0.3))
    b, rec_b = intervene_seq(m, [Intervention(2, 0.3)])
    assert np.array_equal(a.B, b.B) and np.array_equal(a.A, b.A)
    assert rec_a == rec_b


def test_seq_diagonal_order_invariance():
    m = OuModel(p=3, d=3, x0=[1.0, 2.0, 3.0], A=[4.0, 5.0, 6.0],
                B=np.diag([-1.0, -2.0, -3.0]), sigma=np.eye(3))
    ab, _ = intervene_seq(m, [Intervention(1, 0.5), Intervention(3, -0.5)])
    ba, _ = intervene_seq(m, [Intervention(3, -0.5), Intervention(1, 0.5)])
    assert np.array_equal(ab.B, ba.B)
    assert np.array_equal(ab.A, ba.A)
    assert ab.labels == ba.labels == ("X2",)


def test_seq_duplicate_rejected():
    m = demo_triangular()
    twice = [Intervention(2, 1.0), Intervention(2, 2.0)]
    with pytest.raises(DuplicateInterventionError, match="^coordinate 'X2' was already pinned$"):
        intervene_seq(m, twice)
    # Pinning X2 of this B leaves a singular block, which intervene_seq
    # reports first; the graph view solves nothing, so it sees the repeat.
    b = np.array([[0.0, 1.0, 0.0], [1.0, -1.0, 0.0], [0.0, 0.0, -1.0]])
    m = OuModel(p=3, d=3, x0=np.zeros(3), A=np.zeros(3), B=b, sigma=np.eye(3))
    with pytest.raises(SingularReducedMatrixError):
        intervene_seq(m, twice)
    with pytest.raises(DuplicateInterventionError, match="^coordinate 'X2' was already pinned$"):
        intervened_dependence_graph(m, twice)


def test_seq_resolves_original_indices():
    # Pin X1 then X3; the second index must refer to the original X3 even
    # though it sits at position 2 after the first reduction.
    rng = np.random.default_rng(17)
    m = OuModel(p=3, d=3, x0=np.zeros(3), A=rng.uniform(-1, 1, 3),
                B=diag_dominant(rng, 3), sigma=np.eye(3))
    c1, c3 = 0.8, -1.1
    out, rec = intervene_seq(m, [Intervention(1, c1), Intervention(3, c3)])
    assert out.labels == ("X2",)
    assert rec.fixed == (("X1", c1), ("X3", c3))
    for _ in range(20):
        y = rng.uniform(-4, 4, 1)
        x = np.array([c1, y[0], c3])
        assert abs(out.drift(y)[0] - m.drift(x)[1]) <= 1e-10
    # On p = 4, "X3 then X1": X1 still sits at index 1 after X3 is gone.
    m4 = OuModel(p=4, d=4, x0=np.zeros(4), A=np.zeros(4),
                 B=diag_dominant(rng, 4), sigma=np.eye(4))
    out, rec = intervene_seq(m4, [Intervention(3, c3), Intervention(1, c1)])
    assert out.labels == ("X2", "X4")
    assert rec == InterventionRecord(m4.labels, (("X3", c3), ("X1", c1)), (2, 4))
    assert rec.as_dict() == {
        "original_labels": ["X1", "X2", "X3", "X4"],
        "fixed": [{"label": "X3", "value": c3}, {"label": "X1", "value": c1}],
        "surviving_labels": ["X2", "X4"],
    }


def test_seq_singular_stage_reported():
    b = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
    m = OuModel(p=3, d=3, x0=np.zeros(3), A=np.zeros(3), B=b, sigma=np.eye(3))
    with pytest.raises(SingularReducedMatrixError) as info:
        intervene_seq(m, [Intervention(3, 0.0), Intervention(1, 0.0)])
    assert info.value.stage == 2


# ------------------------------------------------------------ record lifting

def test_record_lift_roundtrip():
    m = demo_triangular()
    red, rec = intervene_ou(m, Intervention(2, 7.5))
    y = np.arange(10.0).reshape(5, 2)
    lifted = rec.lift(y)
    assert lifted.shape == (5, 3)
    assert np.all(lifted[:, 1] == 7.5)
    assert np.array_equal(lifted[:, [0, 2]], y)
    rec = InterventionRecord(("X1", "X2", "X3", "X4"), (("X3", 0.8), ("X1", -1.1)), (2, 4))
    lifted = rec.lift(y)
    assert lifted.shape == (5, 4)
    assert np.array_equal(lifted[:, [1, 3]], y)
    assert np.all(lifted[:, 2] == 0.8) and np.all(lifted[:, 0] == -1.1)


# ----------------------------------------------------------- dependence graph

def test_graph_triangular_demo():
    g = dependence_graph(demo_triangular())
    assert g.nodes == ("X1", "X2", "X3")
    assert g.edges == (
        ("X1", "X1"), ("X2", "X1"), ("X3", "X1"),
        ("X2", "X2"), ("X3", "X2"),
        ("X3", "X3"),
    )


def test_graph_zero_matrix():
    m = OuModel(p=2, d=2, x0=np.zeros(2), A=np.zeros(2),
                B=np.zeros((2, 2)), sigma=np.eye(2))
    assert dependence_graph(m).edges == ()


def test_graph_tolerance():
    m = OuModel(p=2, d=2, x0=np.zeros(2), A=np.zeros(2),
                B=[[-1.0, 1e-12], [0.0, -1.0]], sigma=np.eye(2))
    assert ("X2", "X1") in dependence_graph(m).edges
    assert ("X2", "X1") not in dependence_graph(m, tol=1e-9).edges


@pytest.mark.parametrize("tol", [-1.0, np.nan])
def test_graph_tolerance_must_be_nonnegative(tol):
    with pytest.raises(DimensionError, match="tol must be nonnegative"):
        dependence_graph(demo_triangular(), tol=tol)


def test_graph_of_reduced_model_is_restriction():
    rng = np.random.default_rng(33)
    for _ in range(20):
        b = diag_dominant(rng, 4)
        b *= rng.random((4, 4)) > 0.4          # sprinkle structural zeros
        b[np.arange(4), np.arange(4)] -= 1.0   # keep diagonal dominant
        m = OuModel(p=4, d=4, x0=np.zeros(4), A=np.zeros(4), B=b, sigma=np.eye(4))
        k = int(rng.integers(1, 5))
        red, _ = intervene_ou(m, Intervention(k, 0.0))
        full = dependence_graph(m)
        sub = dependence_graph(red)
        pinned = m.labels[k - 1]
        expected = tuple((s, t) for s, t in full.edges
                         if s != pinned and t != pinned)
        assert sub.edges == expected


def test_pinned_view_keeps_outgoing_edges():
    # Pinning X2: its self-loop and incoming edges vanish, its outgoing edge
    # to X1 stays visible in the 3-node view.
    m = demo_triangular()
    g = intervened_dependence_graph(m, Intervention(2, 1.0))
    assert g.nodes == ("X1", "X2", "X3")
    assert set(g.edges) == {("X1", "X1"), ("X2", "X1"), ("X3", "X1"), ("X3", "X3")}
    assert ("X2", "X2") not in g.edges
    assert ("X3", "X2") not in g.edges


def test_pinned_view_x3():
    m = demo_triangular()
    g = intervened_dependence_graph(m, Intervention(3, 1.0))
    assert set(g.edges) == {
        ("X1", "X1"), ("X2", "X1"), ("X3", "X1"),
        ("X2", "X2"), ("X3", "X2"),
    }
    assert ("X3", "X3") not in g.edges


def test_graph_dot_emission():
    dot = dependence_graph(demo_triangular()).to_dot()
    assert dot.startswith("digraph G {\n")
    assert '  "X2" -> "X1";' in dot
    assert dot.endswith("}\n")


# ---------------------------------------------------------------- general SDE

def test_general_constant_coefficient():
    sigma = np.array([[1.0, 0.0], [0.5, 2.0], [0.0, 1.0]])
    sde = GeneralSde(p=3, d=2, x0=np.zeros(3), coef=lambda x: sigma)
    red = intervene_general(sde, Intervention(2, 4.0))
    assert red.p == 2 and red.d == 2
    assert np.array_equal(red.coefs_at(np.zeros((1, 2)))[0], sigma[[0, 2], :])


def test_general_coefficient_ignoring_pinned_coordinate():
    def coef(x):
        return np.array([[x[0], 1.0], [2.0 * x[2], 0.0], [x[0] + x[2], 1.0]])

    sde = GeneralSde(p=3, d=2, x0=np.zeros(3), coef=coef)
    red = intervene_general(sde, Intervention(2, 123.0))
    rng = np.random.default_rng(2)
    for _ in range(20):
        y = rng.uniform(-3, 3, 2)
        x = np.insert(y, 1, 0.0)   # value at position 2 is irrelevant
        assert np.array_equal(red.coefs_at(y[None])[0], coef(x)[[0, 2], :])


def test_general_matches_ou_reduction():
    rng = np.random.default_rng(44)
    m = OuModel(p=4, d=3, x0=np.zeros(4), A=rng.uniform(-1, 1, 4),
                B=diag_dominant(rng, 4), sigma=rng.uniform(-1, 1, (4, 3)))
    iv = Intervention(3, 0.6)
    red_general = intervene_general(ou_as_general(m), iv)
    red_ou, _ = intervene_ou(m, iv)
    lift_general = ou_as_general(red_ou)
    for _ in range(100):
        y = rng.uniform(-4, 4, 3)
        diff = red_general.coefs_at(y[None])[0] - lift_general.coefs_at(y[None])[0]
        assert np.max(np.abs(diff)) <= 1e-12


# Misshapen, ragged and non-finite coefficients of a p = 3, d = 2 SDE, as a
# one-state `coef` (x -> value) and as a `batch_coef` (n rows -> value).
_BAD_COEFS = {
    "extra-column": (lambda x: np.ones((3, 3)), DimensionError),
    "missing-row": (lambda x: np.ones((2, 2)), DimensionError),
    "vector": (lambda x: np.ones(3), DimensionError),
    "ragged": (lambda x: [[1.0, 1.0], [1.0], [1.0, 1.0]], DimensionError),
    "nonfinite": (lambda x: np.full((3, 2), np.nan), NonFiniteError),
}
_BAD_BATCH_COEFS = {
    "extra-column": (lambda x: np.ones((len(x), 3, 3)), DimensionError),
    "missing-row": (lambda x: np.ones((len(x), 2, 2)), DimensionError),
    "flat": (lambda x: np.ones((len(x), 3)), DimensionError),
    "ragged": (lambda x: [np.ones((3, 2))] * (len(x) - 1) + [np.ones((3, 1))],
               DimensionError),
    "nonfinite": (lambda x: np.full((len(x), 3, 2), np.inf), NonFiniteError),
}


@pytest.mark.parametrize("levels", [0, 1, 2])
@pytest.mark.parametrize("form, name", [("coef", k) for k in _BAD_COEFS]
                         + [("batch_coef", k) for k in _BAD_BATCH_COEFS])
def test_general_bad_coefficient_is_a_checked_error(form, name, levels):
    # Every level of intervene_general evaluates the SDE it wraps through
    # coefs_at, so the fault surfaces as the library's own error, never as
    # an IndexError or ValueError from slicing an unchecked stack.
    fn, error = (_BAD_COEFS if form == "coef" else _BAD_BATCH_COEFS)[name]
    sde = GeneralSde(p=3, d=2, x0=np.zeros(3), **{form: fn})
    for iv in [Intervention(2, 1.0), Intervention(1, -0.5)][:levels]:
        sde = intervene_general(sde, iv)
    with pytest.raises(error, match=re.escape("coef(x)")):
        sde.coefs_at(np.zeros((2, sde.p)))
    with pytest.raises(error, match=re.escape("coef(x)")):
        sde.coefs_at(np.zeros((1, sde.p)))[0]


def test_ou_as_general_layout():
    m = demo_triangular()
    sde = ou_as_general(m)
    assert sde.p == 3 and sde.d == 4
    x = np.array([0.5, -1.0, 2.0])
    a = sde.coefs_at(x[None])[0]
    assert np.allclose(a[:, 0], m.drift(x))
    assert np.array_equal(a[:, 1:], m.sigma)
