"""The package's public surface."""

import oucausal


def test_every_exported_name_resolves():
    assert len(set(oucausal.__all__)) == len(oucausal.__all__)
    missing = [name for name in oucausal.__all__ if not hasattr(oucausal, name)]
    assert missing == []


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from oucausal import *", namespace)
    assert set(oucausal.__all__) <= set(namespace)
