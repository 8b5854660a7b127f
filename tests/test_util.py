"""The test suite's own helpers in `util.py`."""

import numpy as np
import pytest

from oucausal.errors import DimensionError
from util import EmptyResultError, principal_submatrix


# --------------------------------------------------------- principal submatrix

def test_principal_submatrix_basic():
    m = np.array([[1.0, 7.0], [-1.0, -3.0]])
    assert np.array_equal(principal_submatrix(m, {2}), [[1.0]])
    assert np.array_equal(principal_submatrix(m, set()), m)


def test_principal_submatrix_index_bookkeeping():
    m = np.arange(16.0).reshape(4, 4)
    sub = principal_submatrix(m, {1, 3})
    assert np.array_equal(sub, [[m[1, 1], m[1, 3]], [m[3, 1], m[3, 3]]])


def test_principal_submatrix_remove_all():
    with pytest.raises(EmptyResultError):
        principal_submatrix(np.eye(2), {1, 2})


def test_principal_submatrix_bad_index():
    with pytest.raises(DimensionError):
        principal_submatrix(np.eye(2), {3})


def test_principal_submatrix_commutes_with_transpose():
    rng = np.random.default_rng(14)
    for _ in range(30):
        m = rng.uniform(-2.0, 2.0, (5, 5))
        removed = set(int(i) for i in rng.choice(5, size=2, replace=False) + 1)
        lhs = principal_submatrix(m.T, removed)
        rhs = principal_submatrix(m, removed).T
        assert np.array_equal(lhs, rhs)
